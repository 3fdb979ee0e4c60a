(* Type checker for MiniC.  Annotates every expression's [ety] slot in
   place and validates declarations.  Deliberately permissive where C is
   permissive (integer mixing, void* conversions), strict where the
   later lowering needs guarantees (lvalues, known struct fields, known
   callees). *)

open Ast

exception Error of string * int

type checked = {
  prog : program;
  layouts : Layout.env;
  funcs : (string, ty) Hashtbl.t;       (* name -> Tfun *)
  globals : (string, ty) Hashtbl.t;
}

let err line fmt = Fmt.kstr (fun m -> raise (Error (m, line))) fmt

(* Value type of an expression after array-to-pointer decay. *)
let decay = function Tarr (t, _) -> Tptr t | t -> t

let int_rank = function
  | Tchar -> 1 | Tshort -> 2 | Tint -> 4 | Twchar -> 4 | Tlong -> 8
  | _ -> 0

let arith_result a b =
  if int_rank a >= int_rank b then (if int_rank a < 4 then Tint else a)
  else if int_rank b < 4 then Tint
  else b

let rec is_lvalue e =
  match e.e with
  | Ident _ | Deref _ | Index _ | Field _ | Arrow _ -> true
  | Cast (_, e) -> is_lvalue e
  | Comma (_, e) -> is_lvalue e
  | Int _ | Str _ | Wstr _ | Bin _ | Un _ | Addr _ | Assign _
  | Op_assign _ | Inc_dec _ | Call _ | Sizeof_ty _ | Sizeof_expr _
  | Cond _ -> false

type scope = {
  layouts : Layout.env;
  funcs : (string, ty) Hashtbl.t;
  globals : (string, ty) Hashtbl.t;
  mutable locals : (string * ty) list list;  (* stack of scopes *)
  ret : ty;
}

(* Lowering asks [Layout] for the size of every type it declares,
   copies, takes [sizeof] of, or steps a pointer over; an undefined
   struct there is rejected here, on the line that needs it. *)
let require_size layouts line t =
  try ignore (Layout.size_of layouts t) with Layout.Error m -> err line "%s" m

(* the type a pointer [t] steps over must have a size *)
let require_pointee sc line t =
  match t with Tptr e -> require_size sc.layouts line e | _ -> ()

let push_scope sc = sc.locals <- [] :: sc.locals

let pop_scope sc =
  match sc.locals with
  | _ :: rest -> sc.locals <- rest
  | [] -> assert false

let add_local sc line name ty =
  match sc.locals with
  | top :: rest ->
    if List.mem_assoc name top then err line "redefinition of %s" name;
    sc.locals <- ((name, ty) :: top) :: rest
  | [] -> assert false

let lookup_var sc name =
  let rec in_locals = function
    | [] -> None
    | scope :: rest ->
      (match List.assoc_opt name scope with
       | Some t -> Some t
       | None -> in_locals rest)
  in
  match in_locals sc.locals with
  | Some t -> Some t
  | None -> Hashtbl.find_opt sc.globals name

(* Can a value of type [src] be used where [dst] is expected?  Mirrors
   C's implicit conversions: integer <-> integer, void* <-> T*,
   array decay, 0 -> pointer. *)
let compatible dst src =
  let dst = decay dst and src = decay src in
  if ty_equal dst src then true
  else
    match dst, src with
    | t1, t2 when is_integer t1 && is_integer t2 -> true
    | Tptr Tvoid, Tptr _ | Tptr _, Tptr Tvoid -> true
    | Tptr _, t when is_integer t -> true  (* 0 / intptr casts in C89 code *)
    | t, Tptr _ when is_integer t -> true
    | Tptr a, Tptr b -> ty_equal a b
    | _ -> false

let rec check_expr sc (e : expr) : ty =
  let t = infer sc e in
  e.ety <- t;
  t

and infer sc e =
  let line = e.eline in
  match e.e with
  | Int (_, t) -> t
  | Str s -> Tarr (Tchar, String.length s + 1)
  | Wstr a -> Tarr (Twchar, Array.length a + 1)
  | Ident name ->
    (match lookup_var sc name with
     | Some t -> t
     | None ->
       (match Hashtbl.find_opt sc.funcs name with
        | Some t -> t
        | None -> err line "undeclared identifier %s" name))
  | Bin (op, a, b) ->
    let ta = decay (check_expr sc a) and tb = decay (check_expr sc b) in
    (match op with
     | Add ->
       (match ta, tb with
        | Tptr _, t when is_integer t -> require_pointee sc line ta; ta
        | t, Tptr _ when is_integer t -> require_pointee sc line tb; tb
        | t1, t2 when is_integer t1 && is_integer t2 -> arith_result t1 t2
        | _ -> err line "invalid operands to +")
     | Sub ->
       (match ta, tb with
        | Tptr _, t when is_integer t -> require_pointee sc line ta; ta
        | Tptr _, Tptr _ -> require_pointee sc line ta; Tlong
        | t1, t2 when is_integer t1 && is_integer t2 -> arith_result t1 t2
        | _ -> err line "invalid operands to -")
     | Mul | Div | Mod | Shl | Shr | Band | Bor | Bxor ->
       if is_integer ta && is_integer tb then arith_result ta tb
       else err line "invalid operands to arithmetic operator"
     | Eq | Ne | Lt | Le | Gt | Ge ->
       if (is_integer ta || is_pointer ta) && (is_integer tb || is_pointer tb)
       then Tint
       else err line "invalid operands to comparison"
     | Land | Lor ->
       if (is_integer ta || is_pointer ta) && (is_integer tb || is_pointer tb)
       then Tint
       else err line "invalid operands to logical operator")
  | Un (op, a) ->
    let t = decay (check_expr sc a) in
    (match op with
     | Neg | Bnot ->
       if is_integer t then (if int_rank t < 4 then Tint else t)
       else err line "invalid operand to unary operator"
     | Lnot ->
       if is_integer t || is_pointer t then Tint
       else err line "invalid operand to !")
  | Addr a ->
    let t = check_expr sc a in
    if not (is_lvalue a) then err line "& requires an lvalue";
    Tptr t
  | Deref a ->
    (match decay (check_expr sc a) with
     | Tptr Tvoid -> err line "cannot dereference void*"
     | Tptr t -> t
     | _ -> err line "cannot dereference non-pointer")
  | Assign (lhs, rhs) ->
    let tl = check_expr sc lhs in
    let tr = check_expr sc rhs in
    if not (is_lvalue lhs) then err line "assignment to non-lvalue";
    (match tl with
     | Tarr _ -> err line "assignment to array"
     | Tstruct _ ->
       require_size sc.layouts line tl;
       if not (ty_equal tl (decay tr)) then err line "struct type mismatch"
     | _ ->
       if not (compatible tl tr) then
         err line "incompatible types in assignment (%s <- %s)"
           (ty_to_string tl) (ty_to_string tr));
    tl
  | Op_assign (op, lhs, rhs) ->
    let tl = check_expr sc lhs in
    let tr = decay (check_expr sc rhs) in
    if not (is_lvalue lhs) then err line "assignment to non-lvalue";
    (match op, decay tl with
     | (Add | Sub), (Tptr _ as tp) when is_integer tr ->
       require_pointee sc line tp
     | _, t1 when is_integer t1 && is_integer tr -> ()
     | _ -> err line "invalid compound assignment");
    tl
  | Inc_dec { arg; _ } ->
    let t = check_expr sc arg in
    if not (is_lvalue arg) then err line "++/-- requires an lvalue";
    (match decay t with
     | Tptr _ as tp -> require_pointee sc line tp; t
     | t' when is_integer t' -> t
     | _ -> err line "invalid operand to ++/--")
  | Call (name, args) ->
    let signature =
      match Hashtbl.find_opt sc.funcs name with
      | Some (Tfun (ret, params, va)) -> Some (ret, params, va)
      | Some _ | None ->
        (match Builtins.find name with
         | Some { ret; params; varargs } -> Some (ret, params, varargs)
         | None -> None)
    in
    (match signature with
     | None -> err line "call to undeclared function %s" name
     | Some (ret, params, va) ->
       let nargs = List.length args and nparams = List.length params in
       if nargs < nparams || ((not va) && nargs > nparams) then
         err line "wrong number of arguments to %s (%d, expected %d%s)"
           name nargs nparams (if va then "+" else "");
       List.iteri
         (fun i arg ->
            let t = check_expr sc arg in
            if i < nparams then begin
              let expected = List.nth params i in
              if not (compatible expected t) then
                err line "argument %d of %s: expected %s, got %s"
                  (i + 1) name (ty_to_string expected) (ty_to_string t)
            end)
         args;
       ret)
  | Index (a, i) ->
    let ta = check_expr sc a in
    let ti = decay (check_expr sc i) in
    if not (is_integer ti) then err line "array index must be an integer";
    (match decay ta with
     | Tptr Tvoid -> err line "cannot index void*"
     | Tptr t -> require_size sc.layouts line t; t
     | _ -> err line "indexed expression is not a pointer or array")
  | Field (a, f) ->
    (match check_expr sc a with
     | Tstruct s ->
       (try (Layout.field sc.layouts s f).f_ty
        with Layout.Error m -> err line "%s" m)
     | t -> err line "member access on non-struct %s" (ty_to_string t))
  | Arrow (a, f) ->
    (match decay (check_expr sc a) with
     | Tptr (Tstruct s) ->
       (try (Layout.field sc.layouts s f).f_ty
        with Layout.Error m -> err line "%s" m)
     | t -> err line "-> on non-struct-pointer %s" (ty_to_string t))
  | Cast (t, a) ->
    let src = decay (check_expr sc a) in
    (match t, src with
     | t, _ when is_integer t || is_pointer t || ty_equal t Tvoid -> t
     | _ -> err line "invalid cast to %s" (ty_to_string t))
  | Sizeof_ty t -> require_size sc.layouts line t; Tlong
  | Sizeof_expr a ->
    require_size sc.layouts line (check_expr sc a);
    Tlong
  | Cond (c, a, b) ->
    let tc = decay (check_expr sc c) in
    if not (is_integer tc || is_pointer tc) then
      err line "condition must be scalar";
    let ta = decay (check_expr sc a) and tb = decay (check_expr sc b) in
    if is_integer ta && is_integer tb then arith_result ta tb
    else if compatible ta tb then ta
    else err line "mismatched branches of ?:"
  | Comma (a, b) ->
    let _ = check_expr sc a in
    check_expr sc b

let rec check_init sc line ty (init : init) =
  match ty, init with
  | Tarr (Tchar, n), Init_expr ({ e = Str s; _ } as e) ->
    let _ = check_expr sc e in
    if String.length s + 1 > n && n > 0 then
      err line "string initializer too long"
  | Tarr (Twchar, n), Init_expr ({ e = Wstr a; _ } as e) ->
    let _ = check_expr sc e in
    if Array.length a + 1 > n && n > 0 then
      err line "wide string initializer too long"
  | Tarr (elt, n), Init_list items ->
    if List.length items > n && n > 0 then
      err line "too many initializers for array";
    List.iter (check_init sc line elt) items
  | Tstruct s, Init_list items ->
    let l = Layout.struct_layout sc.layouts s in
    if List.length items > List.length l.Layout.s_fields then
      err line "too many initializers for struct %s" s;
    List.iteri
      (fun i item ->
         let f = List.nth l.Layout.s_fields i in
         check_init sc line f.Layout.f_ty item)
      items
  | _, Init_expr e ->
    let t = check_expr sc e in
    if not (compatible ty t) then
      err line "incompatible initializer (%s <- %s)"
        (ty_to_string ty) (ty_to_string t)
  | _, Init_list _ -> err line "brace initializer for scalar"

let rec check_stmt sc (s : stmt) =
  match s with
  | Sexpr e -> ignore (check_expr sc e)
  | Sdecl (ty, name, init) ->
    (match ty with
     | Tvoid -> raise (Error ("void variable " ^ name, 0))
     | Tarr (_, n) when n <= 0 ->
       raise (Error ("array with non-positive size: " ^ name, 0))
     | _ -> ());
    (* reject incomplete types: the size must be computable *)
    (try ignore (Layout.size_of sc.layouts ty)
     with Layout.Error m -> raise (Error (m, 0)));
    (* the declared name is visible in its own initializer, as in C *)
    add_local sc 0 name ty;
    Option.iter (check_init sc 0 ty) init
  | Sif (c, a, b) ->
    ignore (check_expr sc c);
    check_block sc a;
    check_block sc b
  | Swhile (c, body) ->
    ignore (check_expr sc c);
    check_block sc body
  | Sdo (body, c) ->
    check_block sc body;
    ignore (check_expr sc c)
  | Sfor (init, cond, step, body) ->
    push_scope sc;
    List.iter (check_stmt sc) init;
    Option.iter (fun e -> ignore (check_expr sc e)) cond;
    Option.iter (fun e -> ignore (check_expr sc e)) step;
    check_block sc body;
    pop_scope sc
  | Sreturn None ->
    if not (ty_equal sc.ret Tvoid) then
      raise (Error ("return without value in non-void function", 0))
  | Sreturn (Some e) ->
    let t = check_expr sc e in
    if ty_equal sc.ret Tvoid then
      raise (Error ("return with value in void function", 0));
    if not (compatible sc.ret t) then
      raise (Error ("incompatible return type", e.eline))
  | Sbreak | Scontinue -> ()
  | Sblock body -> check_block sc body

and check_block sc body =
  push_scope sc;
  List.iter (check_stmt sc) body;
  pop_scope sc

(* Checks a whole program.  Returns the layout table plus symbol tables
   that lowering reuses. *)
let check (prog : program) : checked =
  let layouts =
    try Layout.build prog with Layout.Error m -> raise (Error (m, 0))
  in
  let funcs : (string, ty) Hashtbl.t = Hashtbl.create 17 in
  let globals : (string, ty) Hashtbl.t = Hashtbl.create 17 in
  (* collect signatures first so forward calls work *)
  List.iter
    (function
      | Dfunc f ->
        let t = Tfun (f.fret, List.map fst f.fparams, f.fvarargs) in
        (match Hashtbl.find_opt funcs f.fname with
         | Some t' when not (ty_equal t t') ->
           raise (Error ("conflicting declarations of " ^ f.fname, f.fline))
         | _ -> ());
        Hashtbl.replace funcs f.fname t
      | Dglobal g ->
        if Hashtbl.mem globals g.gname then
          raise (Error ("duplicate global " ^ g.gname, g.gline));
        (match g.gty with
         | Tvoid -> raise (Error ("void global " ^ g.gname, g.gline))
         | t -> require_size layouts g.gline t);
        Hashtbl.replace globals g.gname g.gty
      | Dstruct _ -> ())
    prog;
  List.iter
    (function
      | Dfunc { fbody = Some body; fret; fparams; fline; fname; _ } ->
        let sc = { layouts; funcs; globals; locals = []; ret = fret } in
        push_scope sc;
        List.iter (fun (t, n) ->
            match t with
            | Tvoid -> raise (Error ("void parameter in " ^ fname, fline))
            | _ ->
              require_size layouts fline t;
              add_local sc fline n t)
          fparams;
        check_block sc body;
        pop_scope sc
      | Dfunc { fbody = None; _ } | Dglobal _ | Dstruct _ -> ())
    prog;
  List.iter
    (function
      | Dglobal g ->
        let sc = { layouts; funcs; globals; locals = [ [] ]; ret = Tvoid } in
        Option.iter (check_init sc g.gline g.gty) g.ginit
      | Dfunc _ | Dstruct _ -> ())
    prog;
  { prog; layouts; funcs; globals }

(* Convenience: parse + check in one step. *)
let parse_and_check (src : string) : checked =
  let prog =
    try Parser.parse_program src with
    | Lexer.Error (m, l) -> raise (Error ("lex error: " ^ m, l))
    | Parser.Error (m, l) -> raise (Error ("parse error: " ^ m, l))
  in
  check prog
