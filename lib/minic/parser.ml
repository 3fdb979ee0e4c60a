(* Recursive-descent parser for MiniC.

   Grammar notes:
   - declarations are C-style but simplified: a base type followed by a
     declarator that may add pointer stars and array suffixes;
   - [static] and [const] are accepted and ignored; [unsigned]/[signed]
     are folded into the underlying integer type;
   - [extern] on a function marks it as external/uninstrumented code. *)

open Ast

exception Error of string * int

type state = {
  toks : (Lexer.token * int) array;
  mutable cur : int;
}

let tok st = fst st.toks.(st.cur)
(* the token [k] ahead; past the end it is the final EOF *)
let peek st k = fst st.toks.(min (st.cur + k) (Array.length st.toks - 1))
let line st = snd st.toks.(st.cur)
let advance st = if st.cur < Array.length st.toks - 1 then st.cur <- st.cur + 1
let fail st msg = raise (Error (msg, line st))

let expect st t msg =
  if tok st = t then advance st else fail st ("expected " ^ msg)

let expect_ident st =
  match tok st with
  | Lexer.IDENT s -> advance st; s
  | _ -> fail st "expected identifier"

(* --- types ------------------------------------------------------------- *)

let starts_type st =
  match tok st with
  | Lexer.KVOID | KCHAR | KSHORT | KINT | KLONG | KWCHAR
  | KUNSIGNED | KSIGNED | KCONST | KSTRUCT -> true
  | IDENT ("size_t" | "ssize_t" | "intptr_t" | "uintptr_t" | "int64_t"
          | "uint64_t" | "int32_t" | "uint32_t" | "int8_t" | "uint8_t"
          | "int16_t" | "uint16_t") -> true
  | _ -> false

(* Parses the base type: [const] [unsigned|signed] (void|char|...|struct S).
   Common stdint/size_t spellings are accepted as aliases. *)
let rec parse_base_ty st =
  match tok st with
  | Lexer.KCONST -> advance st; parse_base_ty st
  | KUNSIGNED | KSIGNED ->
    advance st;
    (match tok st with
     | KCHAR | KSHORT | KINT | KLONG -> parse_base_ty st
     | _ -> Tint)
  | KVOID -> advance st; Tvoid
  | KCHAR -> advance st; Tchar
  | KSHORT -> advance st; (if tok st = KINT then advance st); Tshort
  | KINT -> advance st; Tint
  | KLONG ->
    advance st;
    (match tok st with
     | KLONG -> advance st; (if tok st = KINT then advance st); Tlong
     | KINT -> advance st; Tlong
     | _ -> Tlong)
  | KWCHAR -> advance st; Twchar
  | KSTRUCT ->
    advance st;
    let name = expect_ident st in
    Tstruct name
  | IDENT ("size_t" | "ssize_t" | "intptr_t" | "uintptr_t" | "int64_t"
          | "uint64_t") -> advance st; Tlong
  | IDENT ("int32_t" | "uint32_t") -> advance st; Tint
  | IDENT ("int16_t" | "uint16_t") -> advance st; Tshort
  | IDENT ("int8_t" | "uint8_t") -> advance st; Tchar
  | _ -> fail st "expected type"

let parse_stars st base =
  let t = ref base in
  while tok st = Lexer.STAR do
    advance st;
    (if tok st = Lexer.KCONST then advance st);
    t := Tptr !t
  done;
  !t

(* Array suffixes bind outside-in: [int a[2][3]] is array 2 of array 3. *)
let parse_array_suffix st base =
  let rec dims acc =
    if tok st = Lexer.LBRACK then begin
      advance st;
      let n =
        match tok st with
        | Lexer.INT_LIT n -> advance st; n
        | RBRACK -> 0  (* incomplete [] treated as size 0; sema rejects *)
        | _ -> fail st "expected constant array size"
      in
      expect st RBRACK "]";
      dims (n :: acc)
    end else acc
  in
  let ds = dims [] in
  List.fold_left (fun t n -> Tarr (t, n)) base ds

(* --- expressions -------------------------------------------------------- *)

let rec parse_expr st = parse_comma st

and parse_comma st =
  let e = parse_assign st in
  if tok st = Lexer.COMMA then begin
    let ln = line st in
    advance st;
    let rest = parse_comma st in
    mk_expr ~line:ln (Comma (e, rest))
  end else e

and parse_assign st =
  let lhs = parse_cond st in
  let ln = line st in
  let op_assign op =
    advance st;
    let rhs = parse_assign st in
    mk_expr ~line:ln (Op_assign (op, lhs, rhs))
  in
  match tok st with
  | Lexer.ASSIGN ->
    advance st;
    let rhs = parse_assign st in
    mk_expr ~line:ln (Assign (lhs, rhs))
  | PLUSEQ -> op_assign Add
  | MINUSEQ -> op_assign Sub
  | STAREQ -> op_assign Mul
  | SLASHEQ -> op_assign Div
  | PERCENTEQ -> op_assign Mod
  | AMPEQ -> op_assign Band
  | PIPEEQ -> op_assign Bor
  | CARETEQ -> op_assign Bxor
  | SHLEQ -> op_assign Shl
  | SHREQ -> op_assign Shr
  | _ -> lhs

and parse_cond st =
  let c = parse_lor st in
  if tok st = Lexer.QUESTION then begin
    let ln = line st in
    advance st;
    let a = parse_assign st in
    expect st COLON ":";
    let b = parse_cond st in
    mk_expr ~line:ln (Cond (c, a, b))
  end else c

and parse_binlevel st next table =
  let lhs = ref (next st) in
  let rec loop () =
    match List.assoc_opt (tok st) table with
    | Some op ->
      let ln = line st in
      advance st;
      let rhs = next st in
      lhs := mk_expr ~line:ln (Bin (op, !lhs, rhs));
      loop ()
    | None -> ()
  in
  loop ();
  !lhs

and parse_lor st = parse_binlevel st parse_land [ Lexer.OROR, Lor ]
and parse_land st = parse_binlevel st parse_bor [ Lexer.ANDAND, Land ]
and parse_bor st = parse_binlevel st parse_bxor [ Lexer.PIPE, Bor ]
and parse_bxor st = parse_binlevel st parse_band [ Lexer.CARET, Bxor ]
and parse_band st = parse_binlevel st parse_equality [ Lexer.AMP, Band ]

and parse_equality st =
  parse_binlevel st parse_relational [ Lexer.EQEQ, Eq; Lexer.NEQ, Ne ]

and parse_relational st =
  parse_binlevel st parse_shift
    [ Lexer.LT, Lt; Lexer.GT, Gt; Lexer.LE, Le; Lexer.GE, Ge ]

and parse_shift st =
  parse_binlevel st parse_additive [ Lexer.SHL, Shl; Lexer.SHR, Shr ]

and parse_additive st =
  parse_binlevel st parse_multiplicative [ Lexer.PLUS, Add; Lexer.MINUS, Sub ]

and parse_multiplicative st =
  parse_binlevel st parse_unary
    [ Lexer.STAR, Mul; Lexer.SLASH, Div; Lexer.PERCENT, Mod ]

and parse_unary st =
  let ln = line st in
  match tok st with
  | Lexer.MINUS -> advance st; mk_expr ~line:ln (Un (Neg, parse_unary st))
  | BANG -> advance st; mk_expr ~line:ln (Un (Lnot, parse_unary st))
  | TILDE -> advance st; mk_expr ~line:ln (Un (Bnot, parse_unary st))
  | AMP -> advance st; mk_expr ~line:ln (Addr (parse_unary st))
  | STAR -> advance st; mk_expr ~line:ln (Deref (parse_unary st))
  | PLUSPLUS ->
    advance st;
    mk_expr ~line:ln (Inc_dec { pre = true; inc = true; arg = parse_unary st })
  | MINUSMINUS ->
    advance st;
    mk_expr ~line:ln (Inc_dec { pre = true; inc = false; arg = parse_unary st })
  | PLUS -> advance st; parse_unary st
  | KSIZEOF ->
    advance st;
    if tok st = LPAREN then begin
      (* sizeof(type) or sizeof(expr) -- disambiguate on a type start *)
      let save = st.cur in
      advance st;
      if starts_type st then begin
        let base = parse_base_ty st in
        let t = parse_stars st base in
        expect st RPAREN ")";
        mk_expr ~line:ln (Sizeof_ty t)
      end else begin
        st.cur <- save;
        let e = parse_unary st in
        mk_expr ~line:ln (Sizeof_expr e)
      end
    end else
      mk_expr ~line:ln (Sizeof_expr (parse_unary st))
  | LPAREN ->
    (* cast or parenthesized expression *)
    let save = st.cur in
    advance st;
    if starts_type st then begin
      let base = parse_base_ty st in
      let t = parse_stars st base in
      if tok st = RPAREN then begin
        advance st;
        let e = parse_unary st in
        mk_expr ~line:ln (Cast (t, e))
      end else begin
        st.cur <- save;
        parse_postfix st
      end
    end else begin
      st.cur <- save;
      parse_postfix st
    end
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let rec loop () =
    let ln = line st in
    match tok st with
    | Lexer.LBRACK ->
      advance st;
      let idx = parse_expr st in
      expect st RBRACK "]";
      e := mk_expr ~line:ln (Index (!e, idx));
      loop ()
    | DOT ->
      advance st;
      let f = expect_ident st in
      e := mk_expr ~line:ln (Field (!e, f));
      loop ()
    | ARROW ->
      advance st;
      let f = expect_ident st in
      e := mk_expr ~line:ln (Arrow (!e, f));
      loop ()
    | PLUSPLUS ->
      advance st;
      e := mk_expr ~line:ln (Inc_dec { pre = false; inc = true; arg = !e });
      loop ()
    | MINUSMINUS ->
      advance st;
      e := mk_expr ~line:ln (Inc_dec { pre = false; inc = false; arg = !e });
      loop ()
    | _ -> ()
  in
  loop ();
  !e

and parse_primary st =
  let ln = line st in
  match tok st with
  | Lexer.INT_LIT n -> advance st; mk_expr ~line:ln (Int (n, Tint))
  | CHAR_LIT n -> advance st; mk_expr ~line:ln (Int (n, Tchar))
  | STR_LIT s -> advance st; mk_expr ~line:ln (Str s)
  | WSTR_LIT a -> advance st; mk_expr ~line:ln (Wstr a)
  | KNULL -> advance st; mk_expr ~line:ln (Int (0, Tptr Tvoid))
  | IDENT name ->
    advance st;
    if tok st = LPAREN then begin
      advance st;
      let args = ref [] in
      if tok st <> RPAREN then begin
        args := [ parse_assign st ];
        while tok st = COMMA do
          advance st;
          args := parse_assign st :: !args
        done
      end;
      expect st RPAREN ")";
      mk_expr ~line:ln (Call (name, List.rev !args))
    end else
      mk_expr ~line:ln (Ident name)
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN ")";
    e
  | _ -> fail st "expected expression"

(* --- initializers ------------------------------------------------------- *)

let rec parse_init st =
  if tok st = Lexer.LBRACE then begin
    advance st;
    let items = ref [] in
    if tok st <> RBRACE then begin
      items := [ parse_init st ];
      while tok st = COMMA do
        advance st;
        if tok st <> RBRACE then items := parse_init st :: !items
      done
    end;
    expect st RBRACE "}";
    Init_list (List.rev !items)
  end else Init_expr (parse_assign st)

(* --- statements --------------------------------------------------------- *)

let rec parse_stmt st : stmt list =
  match tok st with
  | Lexer.SEMI -> advance st; []
  | LBRACE -> [ Sblock (parse_block st) ]
  | KIF ->
    advance st;
    expect st LPAREN "(";
    let c = parse_expr st in
    expect st RPAREN ")";
    let then_ = parse_stmt st in
    let else_ =
      if tok st = KELSE then begin advance st; parse_stmt st end else []
    in
    [ Sif (c, then_, else_) ]
  | KWHILE ->
    advance st;
    expect st LPAREN "(";
    let c = parse_expr st in
    expect st RPAREN ")";
    [ Swhile (c, parse_stmt st) ]
  | KDO ->
    advance st;
    let body = parse_stmt st in
    expect st KWHILE "while";
    expect st LPAREN "(";
    let c = parse_expr st in
    expect st RPAREN ")";
    expect st SEMI ";";
    [ Sdo (body, c) ]
  | KFOR ->
    advance st;
    expect st LPAREN "(";
    let init =
      if tok st = SEMI then begin advance st; [] end
      else if starts_type st then begin
        let d = parse_local_decl st in
        d
      end else begin
        let e = parse_expr st in
        expect st SEMI ";";
        [ Sexpr e ]
      end
    in
    let cond = if tok st = SEMI then None else Some (parse_expr st) in
    expect st SEMI ";";
    let step = if tok st = RPAREN then None else Some (parse_expr st) in
    expect st RPAREN ")";
    let body = parse_stmt st in
    [ Sfor (init, cond, step, body) ]
  | KRETURN ->
    advance st;
    let e = if tok st = SEMI then None else Some (parse_expr st) in
    expect st SEMI ";";
    [ Sreturn e ]
  | KBREAK -> advance st; expect st SEMI ";"; [ Sbreak ]
  | KCONTINUE -> advance st; expect st SEMI ";"; [ Scontinue ]
  | _ ->
    if starts_type st then parse_local_decl st
    else begin
      let e = parse_expr st in
      expect st SEMI ";";
      [ Sexpr e ]
    end

(* One local declaration statement, possibly with several declarators:
   [int a = 1, *p, buf[10];] *)
and parse_local_decl st : stmt list =
  let base = parse_base_ty st in
  let one () =
    let t = parse_stars st base in
    let name = expect_ident st in
    let t = parse_array_suffix st t in
    let init = if tok st = Lexer.ASSIGN then begin
        advance st;
        Some (parse_init st)
      end else None
    in
    Sdecl (t, name, init)
  in
  let decls = ref [ one () ] in
  while tok st = COMMA do
    advance st;
    decls := one () :: !decls
  done;
  expect st SEMI ";";
  List.rev !decls

and parse_block st : stmt list =
  expect st LBRACE "{";
  let stmts = ref [] in
  while tok st <> RBRACE && tok st <> EOF do
    stmts := List.rev_append (parse_stmt st) !stmts
  done;
  expect st RBRACE "}";
  List.rev !stmts

(* --- top level ---------------------------------------------------------- *)

let parse_struct_def st =
  (* cursor sits on KSTRUCT and the next-next token is LBRACE *)
  expect st KSTRUCT "struct";
  let name = expect_ident st in
  expect st LBRACE "{";
  let fields = ref [] in
  while tok st <> RBRACE do
    let base = parse_base_ty st in
    let one () =
      let t = parse_stars st base in
      let fname = expect_ident st in
      let t = parse_array_suffix st t in
      fields := (t, fname) :: !fields
    in
    one ();
    while tok st = COMMA do advance st; one () done;
    expect st SEMI ";"
  done;
  expect st RBRACE "}";
  expect st SEMI ";";
  Dstruct { sname = name; sfields = List.rev !fields }

let parse_top st : decl list =
  let ln = line st in
  let extern = (tok st = Lexer.KEXTERN) in
  if extern then advance st;
  (if tok st = KSTATIC then advance st);
  if tok st = KSTRUCT
  && peek st 2 = Lexer.LBRACE
  then [ parse_struct_def st ]
  else begin
    let base = parse_base_ty st in
    if tok st = SEMI then begin advance st; [] end
    else begin
      let t = parse_stars st base in
      let name = expect_ident st in
      if tok st = LPAREN then begin
        (* function definition or declaration *)
        advance st;
        let params = ref [] in
        let varargs = ref false in
        if tok st <> RPAREN then begin
          let one () =
            if tok st = ELLIPSIS then begin
              advance st;
              varargs := true
            end else begin
              let b = parse_base_ty st in
              let pt = parse_stars st b in
              let pname =
                match tok st with
                | IDENT s -> advance st; s
                | _ -> ""
              in
              let pt = parse_array_suffix st pt in
              (* array parameters decay to pointers *)
              let pt = match pt with Tarr (e, _) -> Tptr e | t -> t in
              if not (ty_equal pt Tvoid) then params := (pt, pname) :: !params
            end
          in
          one ();
          while tok st = COMMA do advance st; one () done
        end;
        expect st RPAREN ")";
        let body =
          if tok st = SEMI then begin advance st; None end
          else Some (parse_block st)
        in
        [ Dfunc { fname = name; fret = t; fparams = List.rev !params;
                  fvarargs = !varargs; fbody = body;
                  fextern = extern && body = None; fline = ln } ]
      end else begin
        (* global variable(s) *)
        let decls = ref [] in
        let finish_one t name =
          let init =
            if tok st = Lexer.ASSIGN then begin
              advance st;
              Some (parse_init st)
            end else None
          in
          decls := Dglobal { gname = name; gty = t; ginit = init; gline = ln }
                   :: !decls
        in
        let t = parse_array_suffix st t in
        finish_one t name;
        while tok st = COMMA do
          advance st;
          let t = parse_stars st base in
          let name = expect_ident st in
          let t = parse_array_suffix st t in
          finish_one t name
        done;
        expect st SEMI ";";
        List.rev !decls
      end
    end
  end

let parse_program (src : string) : program =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; cur = 0 } in
  let decls = ref [] in
  while tok st <> EOF do
    decls := List.rev_append (parse_top st) !decls
  done;
  List.rev !decls
