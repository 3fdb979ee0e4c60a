(* Hand-rolled on purpose: the project takes no JSON dependency, every
   format here is integer-only, and a small strict codec is easier to
   keep deterministic (and to fuzz) than a dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

type layout = Compact | Spaced

(* --- printer --------------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string layout v =
  let comma, colon =
    match layout with Compact -> (",", ":") | Spaced -> (", ", ": ")
  in
  let buf = Buffer.create 128 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Str s -> escape_string buf s
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
           if i > 0 then Buffer.add_string buf comma;
           emit v)
        vs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
           if i > 0 then Buffer.add_string buf comma;
           escape_string buf k;
           Buffer.add_string buf colon;
           emit v)
        fields;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

(* --- parser ---------------------------------------------------------------- *)

(* Recursion depth is bounded so a line of a million '[' is an error,
   not a stack overflow. *)
let max_depth = 512

exception Bad of string

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail m = raise (Bad (Printf.sprintf "%s at offset %d" m !pos)) in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           if not (String.for_all is_hex hex) then fail "bad \\u escape";
           let code = int_of_string ("0x" ^ hex) in
           if code >= 0x100 then fail "\\u escape beyond latin-1";
           Buffer.add_char buf (Char.chr code);
           pos := !pos + 4
         | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
    do
      advance ()
    done;
    (match peek () with
     | Some ('.' | 'e' | 'E') -> fail "floats are not part of the protocol"
     | _ -> ());
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  (* comma-separated items up to [close]; the opener is already consumed *)
  let items close item =
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else begin
      let acc = ref [ item () ] in
      skip_ws ();
      while peek () = Some ',' do
        advance ();
        acc := item () :: !acc;
        skip_ws ()
      done;
      expect close;
      List.rev !acc
    end
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> Int (parse_int ())
    | Some ('[' | '{') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '[' ->
      advance ();
      List (items ']' (fun () -> parse_value (depth + 1)))
    | Some '{' ->
      advance ();
      let start = !pos in
      let fields =
        items '}' (fun () ->
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value (depth + 1)))
      in
      (* sort, not pairwise: a line with 100k keys stays O(n log n) *)
      let keys = List.sort String.compare (List.map fst fields) in
      let rec dup = function
        | a :: (b :: _ as tl) -> String.equal a b || dup tl
        | _ -> false
      in
      if dup keys then begin
        pos := start - 1;
        fail "duplicate object key"
      end;
      Obj fields
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

(* --- accessors ------------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_str key v =
  match member key v with
  | Some (Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%S: expected a string" key)
  | None -> Error (Printf.sprintf "%S: missing" key)

let get_int key v =
  match member key v with
  | Some (Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "%S: expected an integer" key)
  | None -> Error (Printf.sprintf "%S: missing" key)

let get_bool ?default key v =
  match (member key v, default) with
  | Some (Bool b), _ -> Ok b
  | Some _, _ -> Error (Printf.sprintf "%S: expected a boolean" key)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "%S: missing" key)
