(* Quickstart: open a document, run XPath and XQuery, pick engines,
   persist. Everything goes through the session API (Xqp.Session); every
   call returns a result, with a structured Xqp.Error.t on failure. See
   the other examples for the layers underneath.

   Run with: dune exec examples/quickstart.exe *)

module Session = Xqp.Session

let source =
  {|<library>
      <shelf floor="1">
        <book lang="en"><title>The Art of Computer Programming</title><year>1968</year></book>
        <book lang="de"><title>Faust</title><year>1808</year></book>
      </shelf>
      <shelf floor="2">
        <book lang="en"><title>A Relational Model of Data</title><year>1970</year></book>
        <magazine><title>SIGMOD Record</title></magazine>
      </shelf>
    </library>|}

let get = function Ok v -> v | Error e -> failwith (Xqp.Error.message e)

let () =
  (* 1. Open a database from a string (Session.parse_file for .xml files,
     Session.open_db for saved .xqdb stores). *)
  let db = get (Session.of_string source) in
  Format.printf "document: %a@.@." Xqp.Xml.Document.pp_stats (Session.document db);

  (* 2. XPath queries: parsed, rewritten into tree patterns, dispatched to
     the engine the cost model picks. *)
  let show q =
    let nodes = get (Session.query db q) in
    Format.printf "%s -> %d nodes@.%s@.@." q (List.length nodes) (Session.to_xml db nodes)
  in
  show "/library/shelf/book/title";
  show "//book[year > 1900]/title";
  show "//shelf[book/title]/@floor";

  (* 3. Every physical engine returns the same answer (they are
     differential-tested against the algebra's reference implementation). *)
  let q = "//book[year > 1900]/title" in
  List.iter
    (fun engine ->
      Format.printf "%-16s %d nodes@."
        (Xqp.Physical.Executor.strategy_name engine)
        (List.length (get (Session.query ~engine db q))))
    Xqp.Physical.Executor.all_strategies;

  (* 4. Lazy consumers stop as soon as their answer is determined. *)
  Format.printf "@.any pre-1900 book? %b@." (get (Session.exists db "//book[year < 1900]"));
  (match get (Session.first db "//title") with
  | Some t -> Format.printf "first title: %s@." (Session.text db t)
  | None -> ());

  (* 5. XQuery, including construction, and a plan report. *)
  Format.printf "@.XQuery:@.%s@.@."
    (get
       (Session.xquery_string db
          {|<english>{ for $b in //book where $b/@lang = "en" order by $b/year return $b/title }</english>|}));
  print_string (get (Session.explain db "//book[year > 1900]/title")).Session.rendered;

  (* 6. Persist the succinct store and reopen it. *)
  let path = Filename.temp_file "xqp_quickstart" ".xqdb" in
  Session.save db path;
  let db2 = get (Session.open_db path) in
  assert (get (Session.query db2 q) = get (Session.query db q));
  Format.printf "@.saved and reloaded %s — answers agree.@." path;
  Sys.remove path
