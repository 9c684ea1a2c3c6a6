(* Analytics over an XMark-flavoured auction site: twig queries across
   physical engines, cost-based engine choice, and XQuery aggregation.

   Run with: dune exec examples/auction_analytics.exe *)

open Xqp_xml
open Xqp_algebra
open Xqp_physical

let () =
  let doc = Xqp_workload.Gen_auction.packed ~scale:20_000 () in
  let exec = Executor.create doc in
  Format.printf "auction document: %a@.@." Document.pp_stats doc;

  (* --- engine comparison on a twig query ----------------------------- *)
  let q = "//person[profile/@income > 60000]/name" in
  Format.printf "query: %s@." q;
  List.iter
    (fun strategy ->
      let t0 = Sys.time () in
      let nodes = Executor.execute exec ~strategy (Executor.Query q) in
      Format.printf "  %-16s %4d results  %6.2f ms@."
        (Executor.strategy_name strategy)
        (List.length nodes)
        ((Sys.time () -. t0) *. 1000.0))
    Executor.all_strategies;

  (* --- what the optimizer decides ------------------------------------ *)
  let pattern = Xqp_xpath.Parser.parse_pattern q in
  let stats = Executor.statistics exec in
  Format.printf "@.pattern: %a@." Pattern_graph.pp pattern;
  Format.printf "NoK partition: %a@." Nok_partition.pp (Nok_partition.partition pattern);
  Format.printf "estimated results: %.1f, chosen engine: %s@.@."
    (Statistics.estimate_result stats pattern)
    (Cost_model.engine_name (Cost_model.choose stats pattern));

  (* --- XQuery analytics ----------------------------------------------- *)
  let report q =
    let value = Xqp_xquery.Eval.eval_query exec q in
    Format.printf "%s@.  => %s@.@." (String.trim q) (Xqp_xquery.Eval.result_string exec value)
  in
  report "count(//open_auction)";
  report "avg(//open_auction/current)";
  report "max(//person/profile/@income)";
  report
    {|<expensive>{
        for $a in //open_auction
        where $a/current > 400
        order by number($a/current) descending
        return <sale current="{$a/current}">{$a/itemref/@item}</sale>
      }</expensive>|};
  report
    {|<rich-bidders>{
        for $p in //person
        let $income := $p/profile/@income
        where $income > 90000
        return <p>{string($p/name)}</p>
      }</rich-bidders>|}
