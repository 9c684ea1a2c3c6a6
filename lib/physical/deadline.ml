exception Exceeded

let check = function
  | None -> ()
  | Some d -> if Unix.gettimeofday () > d then raise Exceeded
