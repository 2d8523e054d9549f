let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let of_edges ?(name = "g") ~nodes ~edges () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  List.iter
    (fun (id, label) ->
      Buffer.add_string buf (Printf.sprintf "  %s [label=\"%s\"];\n" id (escape label)))
    nodes;
  List.iter
    (fun (src, dst) -> Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" src dst))
    edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
