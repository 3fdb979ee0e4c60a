(* A small strict JSON reader for BENCHMARK.json, whose bounds are
   fractions ([Serve.Protocol.parse] reads only the integer subset). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.equal (String.sub s !pos k) word then begin
      pos := !pos + k;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | '"' | '\\' | '/' -> Buffer.add_char b e
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' when !pos + 4 <= n ->
           (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            | Some code when code < 0x80 ->
              Buffer.add_char b (Char.chr code);
              pos := !pos + 4
            | _ -> fail "unsupported \\u escape")
         | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> incr pos; go ()
      | _ -> ()
    in
    go ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          ws ();
          let k = string () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; members ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec elems acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; elems (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elems []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* --- BENCHMARK.json ---------------------------------------------------------- *)

type metric = {
  m_name : string;
  m_unit : string;
  m_lower_better : bool;
  m_bound : float option;  (* end-to-end metrics only *)
}

type spec = {
  end_to_end : metric list;
  per_layer : metric list;
  workloads : string list;
}

let load_spec path : spec =
  let v = parse (In_channel.with_open_bin path In_channel.input_all) in
  let str k o =
    match member k o with
    | Some (Str s) -> s
    | _ -> raise (Error (Printf.sprintf "%s: missing string %S" path k))
  in
  let list k =
    match member k v with
    | Some (Arr xs) -> xs
    | _ -> raise (Error (Printf.sprintf "%s: missing list %S" path k))
  in
  let metric o =
    { m_name = str "name" o; m_unit = str "unit" o;
      m_lower_better = String.equal (str "better" o) "lower";
      m_bound =
        (match member "bound" o with Some (Num b) -> Some b | _ -> None) }
  in
  { end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
    workloads = List.map (str "name") (list "workloads") }
