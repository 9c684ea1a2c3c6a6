(* The benchmark program. Two workloads over generated auction and bib
   data, driven only through the program's public entry points:

   - serve_warm: an [xqp serve] child process over one packed
     auction:300000 store, replayed by two keep-alive connections with
     the 13-query auction mix. Every plan is a cache hit after warm-up.
   - corpus_adhoc: an in-process [Session.open_db ~domains:2] over a
     catalog of 8 auction:40000 and 2 bib documents in 4 shards, fed a
     seeded stream of more than 512 distinct query texts, so the shared
     plan cache (256 entries) misses and evicts on every call.

   The run alternates load blocks of about half a second with slices of
   the frozen kernel (kernel.ml, its own process). A time at reference
   speed is the raw time times (k_nominal / k_run) ** e, where k_run is
   the median slice of the run and e the time's elasticity (see
   [elasticity]). Every figure is printed both raw and at reference
   speed; the result line reports the latter.

   [--trace 0] prints the end-to-end metrics; [--trace 1] runs the same
   query sequence through the layer functions one by one, records spans
   around each call, prints the per-layer table and writes a Chrome trace.
   The last line of standard output is the JSON result. *)

module S = Xqp.Session
module R = Xqp.Response
module E = Xqp_physical.Executor
module Pp = Xqp_physical.Physical_plan
module Sg = Xqp_physical.Scatter_gather
module Store_io = Xqp_storage.Store_io
module Succinct = Xqp_storage.Succinct_store
module Catalog = Xqp_storage.Catalog
module Doc = Xqp_xml.Document

let auction_scale = 300_000
let corpus_auction_scale = 40_000
let corpus_auctions = 8
let corpus_bibs = 2
let corpus_bib_books = 3_000
let corpus_shards = 4
let corpus_pool = 600
let setup_reps = 4
let corpus_boots = 8
let serve_boots = 24
let slice_every_s = 0.5
let serve_connections = 2
let serve_domains = 2
let corpus_domains = 2

let mix =
  List.map
    (fun q -> q.Xqp_workload.Queries.xpath)
    (Xqp_workload.Queries.auction_paths @ Xqp_workload.Queries.auction_complexity_sweep)

(* --- utilities ------------------------------------------------------------ *)

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.0

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("xbench: " ^ m); exit 2) fmt

(* Nearest-rank quantile of a non-empty list. *)
let quantile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l = quantile 0.5 l
let sum l = List.fold_left ( +. ) 0.0 l
let mean l = match l with [] -> 0.0 | _ -> sum l /. float_of_int (List.length l)

let read_lines ic =
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  go []

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let read_file_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_lines ic)

(* /proc/<pid>/status field in kB. *)
let proc_status_kb pid field =
  let lines = read_file_lines (Printf.sprintf "/proc/%s/status" pid) in
  match List.find_opt (fun l -> String.starts_with ~prefix:(field ^ ":") l) lines with
  | None -> 0
  | Some l ->
    Scanf.sscanf (String.sub l (String.length field + 1) (String.length l - String.length field - 1))
      " %d" Fun.id

(* utime + stime of a process, in ms (clock ticks of 10 ms). *)
let proc_cpu_ms pid =
  let line = List.hd (read_file_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) *. 10.0

(* Run a child to completion and return its standard output lines. *)
let run_child prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let lines = read_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> die "%s %s failed" prog (String.concat " " args)

let self () = Sys.executable_name

let open_db ?domains path =
  match S.open_db ?domains path with Ok s -> s | Error e -> die "%s: %s" path (Xqp.Error.message e)

(* --- options -------------------------------------------------------------- *)

let opts =
  let tbl = Hashtbl.create 16 in
  let argv = Sys.argv in
  let i = ref 2 in
  while !i < Array.length argv do
    let k = argv.(!i) in
    if String.starts_with ~prefix:"--" k && !i + 1 < Array.length argv then begin
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) argv.(!i + 1);
      i := !i + 2
    end
    else die "unexpected argument %s" k
  done;
  tbl

let opt k = match Hashtbl.find_opt opts k with Some v -> v | None -> die "missing --%s" k
let opt_int k = match int_of_string_opt (opt k) with Some v -> v | None -> die "--%s: integer expected" k
let opt_float k = match float_of_string_opt (opt k) with Some v -> v | None -> die "--%s: number expected" k

(* --- the reference kernel ------------------------------------------------- *)

(* One kernel process per run, started at the first slice and stopped at
   exit: closing its input ends it. *)
let kernel_proc = ref None
let kernel_samples = ref []

let kernel_slice () =
  let ic, oc =
    match !kernel_proc with
    | Some p -> p
    | None ->
      let p = Unix.open_process_args (opt "kernel") [| opt "kernel" |] in
      kernel_proc := Some p;
      p
  in
  output_string oc "slice\n";
  flush oc;
  match float_of_string_opt (String.trim (input_line ic)) with
  | Some ms -> kernel_samples := ms :: !kernel_samples
  | None -> die "kernel printed an unexpected result"

let () =
  at_exit (fun () ->
      match !kernel_proc with
      | Some p -> kernel_proc := None; ignore (Unix.close_process p)
      | None -> ())

(* --- spans (traced runs) -------------------------------------------------- *)

type span = {
  sid : int;
  name : string;
  qid : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
  proc : int;  (** 0 = this process; i > 0 = the i-th child whose spans were merged *)
}

let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_sid = ref 0

let span ?qid name f =
  let parent, inherited = match !open_spans with p :: _ -> (p.sid, p.qid) | [] -> (-1, -1) in
  let sp =
    { sid = !next_sid; name; qid = Option.value qid ~default:inherited; parent; t0 = now (); t1 = 0.0; proc = 0 }
  in
  incr next_sid;
  open_spans := sp :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      sp.t1 <- now ();
      open_spans := List.tl !open_spans;
      spans := sp :: !spans)
    f

let span_ms sp = (sp.t1 -. sp.t0) *. 1000.0

(* Self time per span: its duration minus the part its children cover
   (children of one span never overlap: they run on one thread). *)
let self_ms all =
  let child = Hashtbl.create 256 in
  List.iter
    (fun sp -> if sp.parent >= 0 then
        let key = (sp.proc, sp.parent) in
        Hashtbl.replace child key (span_ms sp +. Option.value ~default:0.0 (Hashtbl.find_opt child key)))
    all;
  List.map (fun sp -> (sp, span_ms sp -. Option.value ~default:0.0 (Hashtbl.find_opt child (sp.proc, sp.sid)))) all

let span_line sp = Printf.sprintf "span %d %d %d %s %.6f %.6f" sp.sid sp.parent sp.qid sp.name sp.t0 sp.t1

let span_of_line ~proc line =
  Scanf.sscanf line "span %d %d %d %s %f %f" (fun sid parent qid name t0 t1 ->
      { sid; parent; qid; name; t0; t1; proc })

let write_chrome_trace path all =
  let base = List.fold_left (fun m sp -> Float.min m sp.t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i sp ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,\"args\":{\"qid\":%d,\"span\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",") sp.name ((sp.t0 -. base) *. 1e6) ((sp.t1 -. sp.t0) *. 1e6) sp.proc
        sp.qid sp.sid sp.parent)
    (List.sort (fun a b -> compare (a.proc, a.t0, a.sid) (b.proc, b.t0, b.sid)) all);
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* --- generated inputs ----------------------------------------------------- *)

let gen_auction ~seed ~out =
  let doc = Xqp_workload.Gen_auction.packed ~seed ~scale:auction_scale () in
  Store_io.save (Succinct.of_document doc) out;
  Printf.printf "nodes %d\n" (Doc.node_count doc)

(* 8 auction documents then 2 bib documents, packed contiguously into 4
   shards: shards 0-2 hold auctions only and shard 3 holds the two bib
   documents, so auction queries prune shard 3 and bib queries prune
   shards 0-2. *)
let gen_corpus ~seed ~out =
  let auctions =
    List.init corpus_auctions (fun i ->
        ( Printf.sprintf "auction%d" i,
          fun () -> Xqp_workload.Gen_auction.packed ~seed:((seed * 16) + i) ~scale:corpus_auction_scale () ))
  in
  let bibs =
    List.init corpus_bibs (fun i ->
        ( Printf.sprintf "bib%d" i,
          fun () -> Xqp_workload.Gen_bib.packed ~seed:((seed * 16) + 8 + i) ~books:corpus_bib_books () ))
  in
  let cat = Catalog.pack ~shards:corpus_shards ~output:out (auctions @ bibs) in
  Printf.printf "documents %d shards %d\n" (Catalog.doc_count cat) (Catalog.shard_count cat)

(* The corpus_adhoc query stream: workload templates instantiated with
   varied constants, region names and name tests, shuffled by the seed.
   Bib templates name tests absent from the auction shards and auction
   templates ones absent from the bib shard, so shard pruning fires. *)
let corpus_texts () =
  let ints lo hi step = List.init (((hi - lo) / step) + 1) (fun i -> lo + (i * step)) in
  let each xs f = List.map f xs in
  let strs = [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ] in
  List.concat
    [
      each strs (Printf.sprintf "/site/regions/%s/item/name");
      List.concat_map (fun r -> each (ints 0 4 1) (Printf.sprintf "/site/regions/%s/item[quantity > %d]/name" r)) strs;
      each (ints 0 45 1) (Printf.sprintf "//open_auction[bidder/increase > %d]/current");
      each (ints 3 45 3) (Printf.sprintf "//open_auction[bidder/increase > %d][itemref]/initial");
      each (ints 20000 99000 1000) (Printf.sprintf "//person[profile/@income > %d]/name");
      each (ints 20000 99000 2000) (Printf.sprintf "/site/people/person[address/city][profile/@income > %d]/name");
      each (ints 5 205 5) (Printf.sprintf "//open_auction[initial > %d]/current");
      each (ints 50 545 5) (Printf.sprintf "//open_auction[current > %d]/initial");
      each (ints 0 45 1) (Printf.sprintf "//open_auction[bidder/increase > %d]/seller");
      each [ "Toronto"; "Waterloo"; "Boston"; "Paris"; "Tokyo"; "Berlin"; "Sydney" ]
        (Printf.sprintf "//person[address/city = \"%s\"]/name");
      each [ "Canada"; "USA"; "France"; "Japan"; "Germany"; "Australia" ]
        (Printf.sprintf "//item[location = \"%s\"]/name");
      each [ "art"; "books"; "coins"; "stamps"; "tools"; "toys" ]
        (Printf.sprintf "//person[profile/interest/@category = \"%s\"]/name");
      each [ "item"; "person"; "category" ] (Printf.sprintf "//%s/name");
      each [ "description"; "category"; "item"; "parlist" ] (Printf.sprintf "//%s//listitem//text");
      each (ints 10 129 1) (Printf.sprintf "//book[price > %d]/title");
      each (ints 1985 2004 1) (Printf.sprintf "/bib/book[@year > %d]/title");
      each (ints 1985 2004 1) (Printf.sprintf "//book[@year = %d]/author/last");
      each (ints 10 128 2) (Printf.sprintf "//book[price < %d]/publisher");
      each [ "Stevens"; "Abiteboul"; "Buneman"; "Suciu"; "Bosak"; "Codd"; "Gray"; "Ullman"; "Widom";
             "Jagadish"; "Ozsu"; "Zhang" ]
        (Printf.sprintf "//book[author/last = \"%s\"]/title");
      each [ "title"; "publisher"; "price"; "author/last" ] (Printf.sprintf "//book/%s");
    ]

let corpus_stream ~seed =
  let texts = Array.of_list (List.sort_uniq compare (corpus_texts ())) in
  let rng = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length texts - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = texts.(i) in
    texts.(i) <- texts.(j);
    texts.(j) <- t
  done;
  if Array.length texts < corpus_pool then die "only %d distinct corpus texts" (Array.length texts);
  Array.sub texts 0 corpus_pool

let corpus_warmup = mix @ [ "//book/title"; "/bib/book[price > 50]/title" ]

(* Expected row count of every query, computed in a separate process so
   the oracle's heap never weighs on the measured one: the reference τ
   engine for a single store, a 1-domain session for a corpus. *)
let oracle () =
  let s =
    match Hashtbl.find_opt opts "auction-seed" with
    | Some seed ->
      S.of_document (Xqp_workload.Gen_auction.packed ~seed:(int_of_string seed) ~scale:auction_scale ())
    | None -> open_db ~domains:1 (opt "db")
  in
  let engine = if Hashtbl.mem opts "auction-seed" then E.Reference else E.Auto in
  List.iter
    (fun q ->
      match S.run ~engine ~use_cache:false s q with
      | Ok r -> Printf.printf "%d\n" (List.length r.S.nodes)
      | Error e -> die "oracle: %s: %s" q (Xqp.Error.message e))
    (read_file_lines (opt "queries"));
  S.close s

let expected_counts ~work ~source queries =
  let qfile = Filename.concat work "queries.txt" in
  write_lines qfile queries;
  let counts = List.map int_of_string (run_child (self ()) ([ "oracle"; "--queries"; qfile ] @ source)) in
  let tbl = Hashtbl.create 1024 in
  List.iter2 (Hashtbl.replace tbl) queries counts;
  tbl

(* --- answers and failures ------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let wrong = ref 0

let check ~expected q outcome =
  incr attempted;
  match outcome with
  | `Ok rows when rows = Hashtbl.find expected q -> true
  | `Ok rows ->
    incr failed;
    incr wrong;
    Printf.printf "WRONG ANSWER %s: %d rows, expected %d\n%!" q rows (Hashtbl.find expected q);
    false
  | `Error m ->
    incr failed;
    Printf.printf "FAILED %s: %s\n%!" q m;
    false

(* --- the HTTP client ------------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel }

(* Servers still running; killed at exit if the run dies early. *)
let live_servers = ref []

let () =
  at_exit (fun () ->
      List.iter (fun pid -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()); ignore (Unix.waitpid [] pid)) !live_servers)

let start_server ~db =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let xqp = opt "xqp" in
  let pid =
    Unix.create_process xqp
      [| xqp; "serve"; "-f"; db; "--domains"; string_of_int serve_domains; "--port"; "0" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  live_servers := pid :: !live_servers;
  let out = Unix.in_channel_of_descr rd in
  let rec await () =
    match input_line out with
    | line when String.starts_with ~prefix:"xqp serve: listening on " line ->
      Scanf.sscanf line "xqp serve: listening on %[^:]:%d" (fun _ port -> port)
    | _ -> await ()
    | exception End_of_file -> die "xqp serve exited before listening"
  in
  { pid; port = await (); out }

let stop_server srv =
  Unix.kill srv.pid Sys.sigterm;
  ignore (Unix.waitpid [] srv.pid);
  live_servers := List.filter (( <> ) srv.pid) !live_servers;
  close_in srv.out

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable need : int;  (** total bytes of the response once the header is in; -1 before *)
  mutable header : int;
  mutable query : string;
  mutable sent : float;
}

type reply = {
  rq : string;
  rtt_ms : float;
  status : int;
  body : string;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Buffer.create 65536; need = -1; header = 0; query = ""; sent = 0.0 }

let url_encode s =
  let b = Buffer.create (String.length s * 3) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '/' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let send c q =
  let req = Printf.sprintf "GET /query?q=%s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" (url_encode q) in
  c.query <- q;
  c.sent <- now ();
  ignore (Unix.write_substring c.fd req 0 (String.length req))

let find_sub s sub start =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
  go start

let chunk = Bytes.create 65536

(* Read what is available; return the reply once it is complete. *)
let pump c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then die "server closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  if c.need < 0 then begin
    let head = Buffer.sub c.buf 0 (min (Buffer.length c.buf) 4096) in
    let stop = find_sub head "\r\n\r\n" 0 in
    if stop >= 0 then begin
      let lower = String.lowercase_ascii (String.sub head 0 stop) in
      let cl = find_sub lower "content-length:" 0 in
      let len = Scanf.sscanf (String.sub lower (cl + 15) (stop - cl - 15)) " %d" Fun.id in
      c.header <- stop + 4;
      c.need <- stop + 4 + len
    end
  end;
  if c.need >= 0 && Buffer.length c.buf >= c.need then begin
    let status = Scanf.sscanf (Buffer.sub c.buf 0 16) "HTTP/1.%d %d" (fun _ s -> s) in
    let body = Buffer.sub c.buf c.header (c.need - c.header) in
    let reply = { rq = c.query; rtt_ms = ms_since c.sent; status; body } in
    let extra = Buffer.sub c.buf c.need (Buffer.length c.buf - c.need) in
    Buffer.clear c.buf;
    Buffer.add_string c.buf extra;
    c.need <- -1;
    Some reply
  end
  else None

let rec await_reply c = match pump c with Some r -> r | None -> await_reply c

let request c q =
  send c q;
  await_reply c

(* Fields of a Response body. [count], [cache] and [time_ms] follow the
   results array, so they are searched from the end; [status] and
   [queue_ms] precede it. *)
let rfind_sub s sub =
  let m = String.length sub in
  let rec go i = if i < 0 then -1 else if String.sub s i m = sub then i else go (i - 1) in
  go (String.length s - m)

let num_at s i =
  let j = ref i in
  while !j < String.length s && String.contains "0123456789.-+eE" s.[!j] do incr j done;
  float_of_string (String.sub s i (!j - i))

let field ~from_end body key =
  let k = "\"" ^ key ^ "\":" in
  let i = if from_end then rfind_sub body k else find_sub body k 0 in
  if i < 0 then None else Some (i + String.length k)

let reply_outcome r =
  if r.status <> 200 then `Error (Printf.sprintf "HTTP %d" r.status)
  else
    match field ~from_end:false r.body "status" with
    | Some i when String.sub r.body i 4 = "\"ok\"" -> (
      match field ~from_end:true r.body "count" with
      | Some i -> `Ok (int_of_float (num_at r.body i))
      | None -> `Error "response lacks count")
    | _ -> `Error "error response"

let reply_float r key = match field ~from_end:true r.body key with Some i -> num_at r.body i | None -> nan
let reply_queue_ms r = match field ~from_end:false r.body "queue_ms" with Some i -> num_at r.body i | None -> nan
let reply_hit r = match field ~from_end:true r.body "cache" with Some i -> String.sub r.body i 5 = "\"hit\"" | None -> false

let close_conn c = Unix.close c.fd

(* Closed loop over [conns] for [seconds]: each connection walks the
   query list from its own position in [next] and sends its next query as
   soon as a reply is in. Returns the elapsed time and the replies. *)
let http_load conns next queries ~seconds =
  let qs = Array.of_list queries in
  let nq = Array.length qs in
  let t0 = now () in
  let stop = t0 +. seconds in
  let replies = ref [] in
  let send_next i c =
    send c qs.(next.(i) mod nq);
    next.(i) <- next.(i) + 1
  in
  List.iteri send_next conns;
  let busy = ref (List.mapi (fun i c -> (i, c)) conns) in
  while !busy <> [] do
    let ready, _, _ = Unix.select (List.map (fun (_, c) -> c.fd) !busy) [] [] (-1.0) in
    List.iter
      (fun (i, c) ->
        if List.mem c.fd ready then
          match pump c with
          | None -> ()
          | Some r ->
            replies := r :: !replies;
            if now () < stop then send_next i c else busy := List.filter (fun (j, _) -> j <> i) !busy)
      !busy
  done;
  (now () -. t0, !replies)

(* --- metrics output ------------------------------------------------------- *)

(* How far each time moves with the kernel's: the log-log slope of its
   raw figure on k_run over 30 runs of each workload, in which k_run
   ranged from 19 to 45 ms, rounded to a quarter. The corpus caller's
   queries move as far as the kernel's, and so does the server's open (one
   thread of CPU work each, like the kernel). The warm load of serve_warm
   moves a quarter as far: it keeps both processors busy with the
   server's two domains and the client, and its replies likely wait on
   the HTTP path more than on the single-thread speed the kernel
   measures. Per-layer times take the common 0.5. *)
let elasticity label =
  match (opt "workload", label) with
  | "serve_warm", ("throughput_qps" | "latency_p50_ms" | "latency_p99_ms" | "first_query_ms") -> 0.25
  | "serve_warm", "setup_s" -> 0.75
  | ("serve_warm", "open_ms") | ("corpus_adhoc", ("throughput_qps" | "latency_p50_ms")) -> 1.0
  | "corpus_adhoc", "first_query_ms" -> 0.25
  | _ -> 0.5

(* k_run is the median of every slice of the run. A time at reference
   speed is the raw time times [factor e], a rate the raw rate divided by
   it, with e the figure's [elasticity]. Scaling each block by the slices next to it was tried too: it
   steadied medians a little but widened p99, because each slice's own
   noise then lands on the samples of one block. *)
let k_run () = median !kernel_samples
let factor e = (opt_float "k-nominal" /. k_run ()) ** e

(* Run [f], one load block, then a kernel slice. *)
let block f =
  let r = f () in
  kernel_slice ();
  r

(* A figure as measured and at reference speed; the result line reports
   the latter. *)
type metric = { label : string; unit_ : string; raw : float; ref_ : float }

let time_metric label unit_ raw = { label; unit_; raw; ref_ = raw *. factor (elasticity label) }
let rate_metric label unit_ raw = { label; unit_; raw; ref_ = raw /. factor (elasticity label) }
let plain_metric label unit_ v = { label; unit_; raw = v; ref_ = v }

let emit metrics =
  List.iter (fun m -> if Float.is_nan m.ref_ then die "metric %s is not a number" m.label) metrics;
  let k = !kernel_samples in
  Printf.printf "kernel: k_run %.3f ms (median of %d slices, range %.1f-%.1f), k_nominal %.3f ms\n" (k_run ())
    (List.length k) (quantile 0.0 k) (quantile 1.0 k) (opt_float "k-nominal");
  Printf.printf "%-36s %-8s %14s %14s %12s\n" "metric" "unit" "raw" "reference" "elasticity";
  List.iter
    (fun m ->
      Printf.printf "%-36s %-8s %14.4f %14.4f %12s\n" m.label m.unit_ m.raw m.ref_
        (if m.raw = m.ref_ then "-" else Printf.sprintf "%.2f" (elasticity m.label)))
    metrics;
  Printf.printf "attempted %d failed %d (wrong answers %d)\n" !attempted !failed !wrong;
  let body =
    String.concat ", "
      (List.map (fun m -> Printf.sprintf "\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}" m.label m.ref_ m.unit_) metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (!failed = 0)
    (max 1 !attempted) !failed body;
  exit (if !failed > 0 then 1 else 0)

let latency_metrics ~qps lat =
  let n = List.length lat in
  Printf.printf "latency samples %d; p99 has %d samples beyond it\n" n (n - int_of_float (ceil (0.99 *. float_of_int n)));
  [
    rate_metric "throughput_qps" "1/s" qps;
    time_metric "latency_p50_ms" "ms" (quantile 0.5 lat);
    time_metric "latency_p99_ms" "ms" (quantile 0.99 lat);
  ]

(* --- per-layer metrics ---------------------------------------------------- *)

(* Every per-layer metric, in BENCHMARK.json order. A layer a workload
   never calls reads 0 on it (no scatter-gather on a single store, no
   server in process). Left out because they read 0 on every workload:
   run time of the pathstack and binary engines (the cost model binds
   neither for these queries), pages per row (sessions read no pages)
   and the server's queue wait (a keep-alive connection owns its
   worker). *)
let per_layer =
  [
    ("store_io.load_ms", "ms"); ("succinct_store.to_tree_ms", "ms"); ("document.of_tree_ms", "ms");
    ("executor.store_ms", "ms"); ("executor.statistics_ms", "ms"); ("executor.content_index_ms", "ms");
    ("open.alloc_mwords", "Mwords"); ("open.resident_bytes_per_node", "B");
    ("planner.compile_ms", "ms"); ("plan_cache.hit_ratio", "ratio");
    ("scatter_gather.run_ms", "ms"); ("scatter_gather.merge_ms", "ms");
    ("scatter_gather.shard_skew", "ratio"); ("scatter_gather.pruned_share", "ratio");
    ("catalog.materialize_ms", "ms");
    ("executor.run_ms.nok", "ms"); ("executor.run_ms.twigstack", "ms"); ("executor.run_ms.navigation", "ms");
    ("executor.alloc_words_per_query", "words");
    ("session.serialize_ms", "ms"); ("response.encode_ms", "ms"); ("response.bytes", "B");
    ("server.engine_ms", "ms"); ("server.http_ms", "ms");
    ("server.cpu_ms_per_query", "ms");
    ("unattributed_ms", "ms"); ("trace.overhead_pct", "%");
  ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64
let set_layer name v = Hashtbl.replace layer_values name v

let emit_layers ~workload ~trace_file =
  Printf.printf "per-layer metrics, %s (times at reference speed; raw in brackets):\n" workload;
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v = Option.value ~default:0.0 (Hashtbl.find_opt layer_values name) in
        if unit_ = "ms" then time_metric name unit_ v else plain_metric name unit_ v)
      per_layer
  in
  List.iter
    (fun m ->
      if Hashtbl.mem layer_values m.label then
        Printf.printf "  %-34s %12.4f %-6s [%.4f]\n" m.label m.ref_ m.unit_ m.raw
      else Printf.printf "  %-34s %12s %-6s (layer not called on this workload)\n" m.label "0" m.unit_)
    metrics;
  Printf.printf "chrome trace: %s (%d spans)\n" trace_file (List.length !spans);
  emit metrics

(* Mean self time per call of the spans named [name]. *)
let layer_self selves name =
  mean (List.filter_map (fun (sp, ms) -> if sp.name = name then Some ms else None) selves)

(* Engine label of a compiled plan: the τ engines bound in it, or
   navigation for a plan with none. *)
let engine_key physical =
  let label e = match Pp.engine_label e with l when String.starts_with ~prefix:"binary" l -> "binary" | l -> l in
  match List.sort_uniq compare (List.map (fun t -> label t.Pp.engine) (Pp.taus physical)) with
  | [] -> "navigation"
  | labels -> String.concat "+" labels

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let rss_kb () = proc_status_kb "self" "VmRSS"

(* The calls [Session.open_db] makes on one store image, one span each,
   then the first force of the executor's store and statistics. Returns
   the session and the words the open allocated. *)
let layered_open load =
  let a0 = alloc_words () in
  let s =
    span "open" (fun () ->
        let store = span "store_io.load" load in
        let tree = span "succinct_store.to_tree" (fun () -> Succinct.to_tree store) in
        span "document.of_tree" (fun () -> S.of_tree tree))
  in
  let words = alloc_words () -. a0 in
  let exec = S.executor s in
  span "executor.store" (fun () -> ignore (Sys.opaque_identity (E.store exec)));
  span "executor.statistics" (fun () -> ignore (Sys.opaque_identity (E.statistics exec)));
  (s, words)

(* The content index is built only for the binary engine's indexed
   semijoin, which no query of these workloads binds, so it is forced
   apart from the timed path. *)
let force_content_index s =
  span "executor.content_index" (fun () -> ignore (Sys.opaque_identity (E.content_index (S.executor s))))

(* Serialize each result the way a server reply does: time
   [Session.node_string] over its nodes, then [Response.to_string]. *)
let serialize_probe s results =
  let ser = ref [] and enc = ref [] and bytes = ref [] in
  List.iter
    (fun (q, (r : S.query_result)) ->
      let items, sms = timed (fun () -> List.map (S.node_string s) r.S.nodes) in
      let body, ems =
        timed (fun () ->
            R.to_string
              (R.ok ~query:q ~mode:"xpath" ~results:items ~engine:r.S.engine
                 ~cache:(E.cache_status_label r.S.cache) ~time_ms:r.S.time_ms ()))
      in
      ser := sms :: !ser;
      enc := ems :: !enc;
      bytes := float_of_int (String.length body) :: !bytes)
    results;
  set_layer "session.serialize_ms" (mean !ser);
  set_layer "response.encode_ms" (mean !enc);
  set_layer "response.bytes" (mean !bytes)

let print_child_layers () =
  Hashtbl.iter (fun k v -> Printf.printf "layer %s %.9g\n" k v) layer_values;
  List.iter (fun sp -> print_endline (span_line sp)) !spans

(* Child process: open every document of a store or a catalog layer by
   layer, in a process that holds nothing else, so that its allocation
   and resident growth are the open's own. *)
let open_layers () =
  let db = opt "db" in
  let loads =
    if Catalog.is_catalog_path db then
      let cat = Catalog.load db in
      List.concat
        (List.init (Catalog.shard_count cat) (fun k ->
             Array.to_list
               (Array.map (fun image () -> Store_io.load_bytes ~path:db image) (Catalog.read_shard_images cat k))))
    else [ (fun () -> Store_io.load db) ]
  in
  let r0 = rss_kb () in
  let opened = List.map (fun load -> layered_open load) loads in
  let nodes = List.fold_left (fun acc (s, _) -> acc + Doc.node_count (S.document s)) 0 opened in
  set_layer "open.alloc_mwords" (sum (List.map snd opened) /. 1e6);
  set_layer "open.resident_bytes_per_node" (float_of_int ((rss_kb () - r0) * 1024) /. float_of_int nodes);
  List.iter (fun (s, _) -> force_content_index s) opened;
  print_child_layers ()

(* Spans and layer values a child printed, merged under process [proc]. *)
let child_layers : (string, float list) Hashtbl.t = Hashtbl.create 16

let merge_child ~proc lines =
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "span" :: _ -> spans := span_of_line ~proc line :: !spans
      | [ "layer"; name; v ] ->
        Hashtbl.replace child_layers name (float_of_string v :: Option.value ~default:[] (Hashtbl.find_opt child_layers name))
      | _ -> ())
    lines

let apply_child_layers () = Hashtbl.iter (fun name vs -> set_layer name (mean vs)) child_layers

let open_layers_child ~db = merge_child ~proc:100 (run_child (self ()) [ "open-layers"; "--db"; db ])

let record_open_layers selves =
  List.iter
    (fun n -> set_layer (n ^ "_ms") (layer_self selves n))
    [ "store_io.load"; "succinct_store.to_tree"; "document.of_tree"; "executor.store";
      "executor.statistics"; "executor.content_index" ]

let wrappers = [ "open"; "query" ]

(* Mean over the root spans named [root] of the time no named layer
   covers: the self time of the root and of the wrapper spans under it. *)
let unattributed selves ~root =
  let kids = Hashtbl.create 256 in
  List.iter (fun (sp, ms) -> Hashtbl.add kids (sp.proc, sp.parent) (sp, ms)) selves;
  let rec wrapped (sp, ms) =
    (if List.mem sp.name wrappers then ms else 0.0)
    +. sum (List.map wrapped (Hashtbl.find_all kids (sp.proc, sp.sid)))
  in
  mean (List.filter_map (fun (sp, ms) -> if sp.name = root then Some (wrapped (sp, ms)) else None) selves)

let root_ms selves ~root = mean (List.filter_map (fun (sp, _) -> if sp.name = root then Some (span_ms sp) else None) selves)

(* One query through the layer functions, in the order Session.run calls
   them, then the serialization the server adds. *)
let traced_query s ~qid q =
  span ~qid "query" (fun () ->
      let exec = S.executor s in
      let physical, cache = span "executor.compile" (fun () -> E.compile_query_info exec q) in
      let nodes =
        span ("executor.run." ^ engine_key physical) (fun () ->
            E.run_physical exec physical ~context:[ Xqp_algebra.Operators.document_context ])
      in
      let results = span "session.serialize" (fun () -> List.map (S.node_string s) nodes) in
      ignore
        (span "response.encode" (fun () ->
             R.to_string
               (R.ok ~query:q ~mode:"xpath" ~results ~engine:(engine_key physical)
                  ~cache:(E.cache_status_label cache) ~time_ms:0.0 ())));
      List.length nodes)

let record_engine_layers selves =
  List.iter
    (fun e -> set_layer ("executor.run_ms." ^ e) (layer_self selves ("executor.run." ^ e)))
    (List.sort_uniq compare
       (List.filter_map
          (fun (sp, _) ->
            if String.starts_with ~prefix:"executor.run." sp.name then
              Some (String.sub sp.name 13 (String.length sp.name - 13))
            else None)
          selves))

(* Uncached compile of each text on the session's planner. *)
let compile_probe exec texts =
  mean
    (List.map
       (fun q -> median (List.init 3 (fun _ -> snd (timed (fun () -> E.compile_query_info exec ~use_cache:false q)))))
       texts)

(* --- serve_warm ----------------------------------------------------------- *)

let check_reply ~expected r = check ~expected r.rq (reply_outcome r)

type boot = { srv : server; conns : conn list; b_setup : float; b_open : float; b_first : float; b_round : float }

(* The first query after boot: the mix's largest reply (about 1.2 MB),
   so that it exercises the whole serve path and lasts long enough (tens
   of ms) that scheduling jitter does not set its time. *)
let serve_first = "//person"

(* Generate and pack the store (when [gen]), boot the server, then answer
   the first query and one cold round on a fresh connection. The cold
   round leaves every plan of the mix in the server's plan cache, so the
   timed connections opened last start warm. *)
let serve_boot ~work ~seed ~expected ~gen =
  let db = Filename.concat work "auction.xqdb" in
  let t0 = now () in
  if gen then ignore (run_child (self ()) [ "gen-auction"; "--seed"; string_of_int seed; "--out"; db ]);
  let srv, b_open = timed (fun () -> start_server ~db) in
  let c = connect srv.port in
  let first, b_first = timed (fun () -> request c serve_first) in
  let round, b_round = timed (fun () -> List.map (request c) mix) in
  close_conn c;
  let b_setup = now () -. t0 in
  List.iter (fun r -> ignore (check_reply ~expected r)) (first :: round);
  let conns = List.init serve_connections (fun _ -> connect srv.port) in
  { srv; conns; b_setup; b_open; b_first; b_round }

let shutdown b =
  List.iter close_conn b.conns;
  stop_server b.srv

(* [serve_boots] server processes share the timed load equally, so the
   figures pool over several processes instead of resting on one. The
   first [setup_reps] boots generate and pack the store first: set-up
   time is their median. Open, first-query and cold-round times are
   medians over all boots. A kernel slice follows each boot and each
   [slice_every_s] of load. *)
let serve_warm ~work ~seed ~seconds ~trace =
  let expected = expected_counts ~work ~source:[ "--auction-seed"; string_of_int seed ] mix in
  let nboots = if trace then 1 else serve_boots in
  let replies = ref [] and load_s = ref 0.0 and cpu_ms = ref 0.0 and hwm = ref [] in
  kernel_slice ();
  let reps =
    List.init nboots (fun i ->
        let b = block (fun () -> serve_boot ~work ~seed ~expected ~gen:(i < setup_reps)) in
        Printf.printf "boot %d: set-up %.3f s, open %.3f ms, first query %.3f ms, cold round %.3f ms\n" i b.b_setup
          b.b_open b.b_first b.b_round;
        let cpu0 = proc_cpu_ms b.srv.pid in
        let next = Array.init serve_connections (fun c -> c * List.length mix / serve_connections) in
        let left = ref (seconds /. float_of_int nboots) in
        while !left > 0.0 do
          let dur, rs = block (fun () -> http_load b.conns next mix ~seconds:(Float.min slice_every_s !left)) in
          left := !left -. dur;
          load_s := !load_s +. dur;
          List.iter (fun r -> if check_reply ~expected r then replies := r :: !replies) rs
        done;
        cpu_ms := !cpu_ms +. (proc_cpu_ms b.srv.pid -. cpu0);
        hwm := (float_of_int (proc_status_kb (string_of_int b.srv.pid) "VmHWM") /. 1024.0) :: !hwm;
        shutdown b;
        b)
  in
  let replies = !replies and load_s = !load_s and cpu_ms = !cpu_ms and hwm_mb = median !hwm in
  let n = List.length replies in
  let lat = List.map (fun r -> r.rtt_ms) replies in
  Printf.printf "serve_warm: %d replies in %.3f s of load over %d server processes, %d connections, %d server domains\n"
    n load_s nboots serve_connections serve_domains;
  if not trace then
    emit
      ([ time_metric "setup_s" "s" (median (List.filteri (fun i _ -> i < setup_reps) (List.map (fun b -> b.b_setup) reps))) ]
      @ latency_metrics ~qps:(float_of_int n /. load_s) lat
      @ [
          plain_metric "peak_rss_mb" "MB" hwm_mb;
          time_metric "open_ms" "ms" (median (List.map (fun b -> b.b_open) reps));
          time_metric "first_query_ms" "ms" (median (List.map (fun b -> b.b_first) reps));
          time_metric "cold_round_ms" "ms" (median (List.map (fun b -> b.b_round) reps));
        ])
  else begin
    let fl = float_of_int (max 1 n) in
    let queue = mean (List.map reply_queue_ms replies) and engine = mean (List.map (fun r -> reply_float r "time_ms") replies) in
    set_layer "server.engine_ms" engine;
    set_layer "server.http_ms" (mean lat -. queue -. engine);
    set_layer "server.cpu_ms_per_query" (cpu_ms /. fl);
    set_layer "plan_cache.hit_ratio" (float_of_int (List.length (List.filter reply_hit replies)) /. fl);
    set_layer "response.bytes" (mean (List.map (fun r -> float_of_int (String.length r.body)) replies));
    let db = Filename.concat work "auction.xqdb" in
    open_layers_child ~db;
    (* The same rounds in process, untraced and then through the layer
       functions with spans; the two alternate, so drift in the host's
       speed falls on both alike. *)
    let s = open_db db in
    let rounds = 6 and words = ref 0.0 and untraced = ref [] in
    for r = 0 to rounds - 1 do
      List.iter
        (fun q ->
          let (), ms =
            timed (fun () ->
                let a0 = alloc_words () in
                let res = Result.get_ok (S.run s q) in
                words := !words +. (alloc_words () -. a0);
                ignore (R.to_string (R.of_query_result s ~query:q res) : string))
          in
          untraced := ms :: !untraced)
        mix;
      List.iteri
        (fun i q ->
          let rows = traced_query s ~qid:((r * List.length mix) + i) q in
          ignore (check ~expected q (`Ok rows)))
        mix
    done;
    kernel_slice ();
    apply_child_layers ();
    let selves = self_ms !spans in
    record_open_layers selves;
    record_engine_layers selves;
    set_layer "executor.alloc_words_per_query" (!words /. float_of_int (List.length !untraced));
    set_layer "planner.compile_ms" (compile_probe (S.executor s) mix);
    set_layer "session.serialize_ms" (layer_self selves "session.serialize");
    set_layer "response.encode_ms" (layer_self selves "response.encode");
    set_layer "unattributed_ms" (unattributed selves ~root:"query");
    set_layer "trace.overhead_pct" (((root_ms selves ~root:"query" /. mean !untraced) -. 1.0) *. 100.0)
  end

(* --- corpus_adhoc --------------------------------------------------------- *)

let run_rows s q =
  match S.run s q with
  | Ok r -> (q, `Ok (List.length r.S.nodes))
  | Error e -> (q, `Error (Xqp.Error.message e))

type corpus_boot = {
  cs : S.t;
  c_setup : float;
  c_open : float;
  c_first : float;
  c_round : float;
  answers : (string * [ `Ok of int | `Error of string ]) list;
}

(* Generate and pack the catalog (when [gen]), open it, answer the first
   query, then one cold pass over the warm-up texts, which touches every
   document. *)
let corpus_boot ~cat ~seed ~gen =
  let t0 = now () in
  if gen then ignore (run_child (self ()) [ "gen-corpus"; "--seed"; string_of_int seed; "--out"; cat ]);
  let cs, c_open = timed (fun () -> open_db ~domains:corpus_domains cat) in
  let first, c_first = timed (fun () -> run_rows cs (List.hd corpus_warmup)) in
  let round, c_round = timed (fun () -> List.map (run_rows cs) corpus_warmup) in
  let c_setup = now () -. t0 in
  { cs; c_setup; c_open; c_first; c_round; answers = first :: round }

(* Open and close the catalog once more. Opening reads only the catalog
   and starts the worker domains, and its time swings between two levels
   within a second, so the run spreads extra opens over the whole load
   and takes the median of them all. *)
let timed_open cat = snd (timed (fun () -> S.close (open_db ~domains:corpus_domains cat)))

let corpus_adhoc ~work ~seed ~seconds ~trace =
  let cat = Filename.concat work "corpus.xqdbc" in
  let stream = corpus_stream ~seed in
  let n = Array.length stream in
  let oracle reps = expected_counts ~work ~source:[ "--db"; cat ] (List.sort_uniq compare (corpus_warmup @ Array.to_list stream)) |> fun expected ->
    List.iter (fun r -> List.iter (fun (q, o) -> ignore (check ~expected q o)) r.answers) reps;
    expected
  in
  if not trace then begin
    (* As in serve_warm, [corpus_boots] sessions share the timed load
       equally and the first [setup_reps] generate the catalog; the stream
       continues across sessions. Answers are checked once the oracle has run. Peak
       memory is read after the first session, the only one whose heap
       holds nothing left over from another. *)
    let samples = ref [] and next = ref 0 and load_s = ref 0.0 and hwm_mb = ref 0.0 and opens = ref [] in
    kernel_slice ();
    let reps =
      List.init corpus_boots (fun i ->
          Gc.compact ();
          let b = block (fun () -> corpus_boot ~cat ~seed ~gen:(i < setup_reps)) in
          let left = ref (seconds /. float_of_int corpus_boots) in
          while !left > 0.0 do
            let dur =
              block (fun () ->
                  let t0 = now () and stop = Float.min slice_every_s !left in
                  while now () -. t0 < stop do
                    let q = stream.(!next mod n) in
                    incr next;
                    let (_, outcome), ms = timed (fun () -> run_rows b.cs q) in
                    samples := (q, outcome, ms) :: !samples
                  done;
                  let dur = now () -. t0 in
                  opens := timed_open cat :: !opens;
                  dur)
            in
            left := !left -. dur;
            load_s := !load_s +. dur
          done;
          if i = 0 then hwm_mb := float_of_int (proc_status_kb "self" "VmHWM") /. 1024.0;
          S.close b.cs;
          b)
    in
    let expected = oracle reps in
    let lat = List.filter_map (fun (q, o, ms) -> if check ~expected q o then Some ms else None) !samples in
    Printf.printf "corpus_adhoc: %d queries in %.3f s over %d distinct texts, %d sessions, 1 caller, %d domains\n"
      !next !load_s n corpus_boots corpus_domains;
    emit
      ([ time_metric "setup_s" "s" (median (List.filteri (fun i _ -> i < setup_reps) (List.map (fun r -> r.c_setup) reps))) ]
      @ latency_metrics ~qps:(float_of_int (List.length lat) /. !load_s) lat
      @ [
          plain_metric "peak_rss_mb" "MB" !hwm_mb;
          time_metric "open_ms" "ms" (median (List.map (fun r -> r.c_open) reps @ !opens));
          time_metric "first_query_ms" "ms" (median (List.map (fun r -> r.c_first) reps));
          time_metric "cold_round_ms" "ms" (median (List.map (fun r -> r.c_round) reps));
        ])
  end
  else begin
    let b = corpus_boot ~cat ~seed ~gen:true in
    let expected = oracle [ b ] in
    let s = b.cs in
    kernel_slice ();
    (* Untraced pass over one cycle of the stream, through Session. *)
    let hits = ref 0 and words = ref 0.0 and answered = ref [] in
    let untraced =
      Array.to_list
        (Array.map
           (fun q ->
             let a0 = alloc_words () in
             let r, ms = timed (fun () -> S.run s q) in
             words := !words +. (alloc_words () -. a0);
             (match r with
             | Error e -> ignore (check ~expected q (`Error (Xqp.Error.message e)))
             | Ok r ->
               ignore (check ~expected q (`Ok (List.length r.S.nodes)));
               if r.S.cache = E.Cache_hit then incr hits;
               answered := (q, r) :: !answered);
             ms)
           stream)
    in
    set_layer "plan_cache.hit_ratio" (float_of_int !hits /. float_of_int n);
    set_layer "executor.alloc_words_per_query" (!words /. float_of_int n);
    serialize_probe s !answered;
    S.close s;
    Gc.compact ();
    kernel_slice ();
    open_layers_child ~db:cat;
    (* The traced pass: the same texts through the planner and
       Scatter_gather.run. *)
    let sg =
      span "scatter_gather.open_catalog" (fun () ->
          Sg.open_catalog ~domains:corpus_domains (span "catalog.load" (fun () -> Catalog.load cat)))
    in
    let planner = Sg.planner sg in
    for ordinal = 0 to Sg.doc_count sg - 1 do
      span "catalog.materialize" (fun () -> Sg.with_doc_executor sg ~ordinal ignore)
    done;
    let skews = ref [] and pruned = ref [] and merges = ref [] and by_engine = Hashtbl.create 8 in
    Array.iteri
      (fun qid q ->
        span ~qid "query" (fun () ->
            let physical, _ = span "executor.compile" (fun () -> E.compile_query_info planner q) in
            let r, ms = timed (fun () -> span "scatter_gather.run" (fun () -> Sg.run sg physical)) in
            ignore (check ~expected q (`Ok (List.length r.Sg.nodes)));
            let live = List.filter (fun (x : Sg.shard_report) -> not x.Sg.pruned) r.Sg.reports in
            let shard_ms = List.map (fun (x : Sg.shard_report) -> x.Sg.ms) live in
            let slowest = List.fold_left Float.max 0.0 shard_ms in
            if live <> [] then skews := (slowest /. Float.max 1e-9 (mean shard_ms)) :: !skews;
            pruned := (float_of_int (List.length r.Sg.reports - List.length live) /. float_of_int (List.length r.Sg.reports)) :: !pruned;
            merges := (ms -. slowest) :: !merges;
            let key = engine_key physical in
            Hashtbl.replace by_engine key (ms :: Option.value ~default:[] (Hashtbl.find_opt by_engine key))))
      stream;
    set_layer "planner.compile_ms" (compile_probe planner (Array.to_list (Array.sub stream 0 50)));
    Sg.close sg;
    kernel_slice ();
    apply_child_layers ();
    let selves = self_ms !spans in
    record_open_layers selves;
    Hashtbl.iter (fun key l -> if not (String.contains key '+') then set_layer ("executor.run_ms." ^ key) (mean l)) by_engine;
    Hashtbl.iter (fun key l -> Printf.printf "scatter_gather.run by engine %-22s %5d queries, mean %.3f ms\n" key (List.length l) (mean l)) by_engine;
    set_layer "catalog.materialize_ms"
      (sum (List.filter_map (fun (sp, ms) -> if sp.name = "catalog.materialize" then Some ms else None) selves));
    set_layer "scatter_gather.run_ms" (layer_self selves "scatter_gather.run");
    set_layer "scatter_gather.merge_ms" (mean !merges);
    set_layer "scatter_gather.shard_skew" (mean !skews);
    set_layer "scatter_gather.pruned_share" (mean !pruned);
    set_layer "unattributed_ms" (unattributed selves ~root:"query");
    set_layer "trace.overhead_pct" (((root_ms selves ~root:"query" /. mean untraced) -. 1.0) *. 100.0)
  end

(* --- main ----------------------------------------------------------------- *)

let workload name =
  let seed = opt_int "seed" and seconds = opt_float "seconds" and trace = opt "trace" = "1" in
  let work = opt "work" in
  (match name with
  | "serve_warm" -> serve_warm ~work ~seed ~seconds ~trace
  | "corpus_adhoc" -> corpus_adhoc ~work ~seed ~seconds ~trace
  | w -> die "unknown workload %s" w);
  (* reached only by traced runs: untraced ones emit and exit above *)
  let trace_file = Filename.concat (opt "out") (Printf.sprintf "trace-%s-%d.json" name seed) in
  write_chrome_trace trace_file !spans;
  emit_layers ~workload:name ~trace_file

let () =
  if Array.length Sys.argv < 2 then die "usage: xbench COMMAND [--option value]...";
  match Sys.argv.(1) with
  | "gen-auction" -> gen_auction ~seed:(opt_int "seed") ~out:(opt "out")
  | "gen-corpus" -> gen_corpus ~seed:(opt_int "seed") ~out:(opt "out")
  | "oracle" -> oracle ()
  | "open-layers" -> open_layers ()
  | "run" -> workload (opt "workload")
  | c -> die "unknown command %s" c
