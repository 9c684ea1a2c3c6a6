(* The frozen reference kernel: a fixed amount of allocation, hashing,
   sorting and pointer chasing, timed in its own process. The benchmark
   starts it once per run and asks for a slice between load blocks, about
   every half second, by writing one line to its standard input; the
   kernel answers with the slice's time in milliseconds. Every timing of
   the run is scaled by the run's median slice, to the power of the
   timing's elasticity (xbench.ml, [factor] and [elasticity]), so that
   drift in the host's speed cancels out of the reported figures.

   It must not change once figures have been recorded against it, and it
   calls no library of the repository: a change to the program under test
   must never change the kernel's cost. Its work mix follows the query
   engine's: short-lived string and record allocation (minor GC), a
   promoted tree walked by pointers (major GC, cache misses), hashing and
   comparison sorting. Each slice starts from a collected heap, and the
   process stays warm between slices, so a slice measures the host's
   speed, not page faults or process start-up. *)

let keys = 20_000
let tree_nodes = 60_000

(* A 48-bit linear congruential generator: fixed and portable, so every
   slice does identical work. *)
let lcg = ref 0x2545F491

let next () =
  lcg := ((!lcg * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF;
  !lcg lsr 16

let word () =
  let len = 6 + (next () mod 10) in
  String.init len (fun _ -> Char.chr (97 + (next () mod 26)))

type node = { label : string; weight : int; mutable kids : node list }

let build_tree () =
  let nodes = Array.init tree_nodes (fun i -> { label = word (); weight = i; kids = [] }) in
  for i = tree_nodes - 1 downto 1 do
    let parent = nodes.(next () mod i) in
    parent.kids <- nodes.(i) :: parent.kids
  done;
  nodes.(0)

let rec walk acc n = List.fold_left walk (acc + n.weight + String.length n.label) n.kids

let work () =
  lcg := 0x2545F491;
  let words = Array.init keys (fun _ -> word ()) in
  let counts = Hashtbl.create 1024 in
  Array.iter
    (fun w ->
      let k = String.sub w 0 3 in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    words;
  let sorted = Array.copy words in
  Array.sort compare sorted;
  let tree = build_tree () in
  let total = walk 0 tree + walk 0 tree in
  Hashtbl.length counts + String.length sorted.(keys / 2) + total

(* One slice per input line, until end of input. *)
let () =
  ignore (Sys.opaque_identity (work ()));
  try
    while true do
      ignore (input_line stdin);
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (work ()));
      Printf.printf "%.4f\n%!" ((Unix.gettimeofday () -. t0) *. 1000.0)
    done
  with End_of_file -> ()
