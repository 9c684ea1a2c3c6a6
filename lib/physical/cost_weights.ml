(* Generated by `xqp calibrate --cost`; do not edit by hand.

   Nanoseconds per work unit, in Cost_model.unit_names order: the
   non-negative least-squares fit of the best of 5 runs of every
   workload query on every engine, measured on a 2-core host
   (OCaml 5.1.1) over
     auction:300000:1 and auction:100000:1. *)

let navigation = [ 73.0119 ]
let nok = [ 112.8308; 600.6706 ]
let twigstack = [ 143.8016; 295.0194; 0.0000 ]
let binary = [ 0.0000; 128.3166 ]
