type t = {
  path : string;
  depth : int;
  op : string;
  engine : string option;
  est_rows : float;
  actual_rows : int option;
  time_ms : float option;
  q_error : float option;
}

let q_error est actual =
  let est = Float.max 1.0 est and act = Float.max 1.0 (float_of_int actual) in
  Float.max (est /. act) (act /. est)

let round3 x = Float.round (x *. 1000.0) /. 1000.0

let to_json r =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("path", Json.Str r.path);
      ("op", Json.Str r.op);
      ("engine", opt (fun e -> Json.Str e) r.engine);
      ("est_rows", Json.Num (round3 r.est_rows));
      ("actual_rows", opt (fun n -> Json.Num (float_of_int n)) r.actual_rows);
      ("ms", opt (fun ms -> Json.Num (round3 ms)) r.time_ms);
    ]

let pp_table ppf rows =
  let opt f = function Some v -> f v | None -> "-" in
  let header = [ "path"; "operator"; "engine"; "est"; "actual"; "q-err"; "ms" ] in
  let cells r =
    [
      r.path;
      String.make (2 * r.depth) ' ' ^ r.op;
      opt Fun.id r.engine;
      Printf.sprintf "%.1f" r.est_rows;
      opt string_of_int r.actual_rows;
      opt (Printf.sprintf "%.2f") r.q_error;
      opt (Printf.sprintf "%.3f") r.time_ms;
    ]
  in
  let lines = header :: List.map cells rows in
  let widths =
    List.fold_left
      (fun ws line -> List.map2 (fun w c -> max w (String.length c)) ws line)
      (List.map (fun _ -> 0) header)
      lines
  in
  (* names left-aligned, numbers right-aligned *)
  let pad i w c = if i < 3 then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c in
  List.iter
    (fun line ->
      Format.fprintf ppf "%s@."
        (String.concat "  " (List.mapi (fun i (w, c) -> pad i w c) (List.combine widths line))))
    lines
