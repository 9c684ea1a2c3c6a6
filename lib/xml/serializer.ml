let render_attrs buffer attrs =
  List.iter
    (fun (k, v) ->
      Sink.add_char buffer ' ';
      Sink.add_string buffer k;
      Sink.add_string buffer "=\"";
      Entity.add Entity.attr buffer v;
      Sink.add_char buffer '"')
    attrs

let has_element_child children =
  List.exists (function Tree.Element _ -> true | _ -> false) children

let has_text_child children = List.exists (function Tree.Text _ -> true | _ -> false) children

let to_string ?(indent = 0) ?(declaration = false) tree =
  let buffer = Sink.create 1024 in
  if declaration then Sink.add_string buffer "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  let pad level =
    if indent > 0 then begin
      Sink.add_char buffer '\n';
      Sink.add_string buffer (String.make (level * indent) ' ')
    end
  in
  let rec render level node =
    match node with
    | Tree.Text s -> Entity.add Entity.text buffer s
    | Tree.Comment s ->
      Sink.add_string buffer "<!--";
      Sink.add_string buffer s;
      Sink.add_string buffer "-->"
    | Tree.Pi (target, body) ->
      Sink.add_string buffer "<?";
      Sink.add_string buffer target;
      Sink.add_char buffer ' ';
      Sink.add_string buffer body;
      Sink.add_string buffer "?>"
    | Tree.Element e ->
      Sink.add_char buffer '<';
      Sink.add_string buffer e.name;
      render_attrs buffer e.attrs;
      if e.children = [] then Sink.add_string buffer "/>"
      else begin
        Sink.add_char buffer '>';
        (* Indent only element-only content: reformatting mixed content would
           change significant text. *)
        let block = indent > 0 && has_element_child e.children && not (has_text_child e.children) in
        List.iter
          (fun child ->
            if block then pad (level + 1);
            render (level + 1) child)
          e.children;
        if block then pad level;
        Sink.add_string buffer "</";
        Sink.add_string buffer e.name;
        Sink.add_char buffer '>'
      end
  in
  render 0 tree;
  Sink.contents buffer

let to_file ?indent ?declaration path tree =
  let oc = open_out_bin path in
  (try output_string oc (to_string ?indent ?declaration tree)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc
