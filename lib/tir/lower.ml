(* Lowering from the checked MiniC AST to Tir.

   Conventions:
   - every local variable gets a stack [slot]; scalar slots whose address
     never escapes are later promoted to registers by [Promote] (the -O2
     model);
   - the [safe] flag on loads/stores marks accesses that are statically
     provably in bounds of their *named* object (constant index into a
     directly named array, direct scalar access).  Sanitizers with a
     type-info optimization may elide checks on safe accesses (paper
     section II.F.2);
   - string literals are interned as internal globals;
   - struct assignment lowers to memcpy. *)

open Ir
module Ast = Minic.Ast
module Layout = Minic.Layout

exception Error of string

let err fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

type local = { l_slot : int; l_ty : Ast.ty }

type env = {
  md : modul;
  checked : Minic.Sema.checked;
  f : func;
  mutable blocks : block list;          (* reverse order of creation *)
  mutable nblocks : int;
  mutable cur : block;
  mutable cur_rev : instr list;         (* current block, reversed *)
  mutable sealed : bool;                (* current block already terminated *)
  mutable scopes : (string * local) list list;
  mutable breaks : int list;
  mutable continues : int list;
  mutable strings : (string * string) list ref;  (* key -> global name *)
}

let layouts env = env.checked.Minic.Sema.layouts
let size_of env t = Layout.size_of (layouts env) t
let decay = Minic.Sema.decay

(* --- block management --------------------------------------------------- *)

let flush_cur env =
  env.cur.b_instrs <- List.rev env.cur_rev

let new_block env =
  let b = { b_id = env.nblocks; b_instrs = []; b_term = Tret None } in
  env.nblocks <- env.nblocks + 1;
  env.blocks <- b :: env.blocks;
  b

let switch_to env b =
  flush_cur env;
  env.cur <- b;
  env.cur_rev <- List.rev b.b_instrs;
  env.sealed <- false

let emit env i = if not env.sealed then env.cur_rev <- i :: env.cur_rev

let terminate env t =
  if not env.sealed then begin
    env.cur.b_term <- t;
    env.sealed <- true
  end

let reg env = fresh_reg env.f

(* --- scopes -------------------------------------------------------------- *)

let push_scope env = env.scopes <- [] :: env.scopes
let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> assert false

let add_local env name l =
  match env.scopes with
  | top :: rest -> env.scopes <- ((name, l) :: top) :: rest
  | [] -> assert false

let lookup_local env name =
  let rec go = function
    | [] -> None
    | sc :: rest ->
      (match List.assoc_opt name sc with Some l -> Some l | None -> go rest)
  in
  go env.scopes

(* --- string literal interning ------------------------------------------- *)

let intern_bytes env ~wide image =
  let key = (if wide then "W" else "N") ^ image in
  match List.assoc_opt key !(env.strings) with
  | Some name -> name
  | None ->
    let name = Printf.sprintf ".str.%d" (List.length !(env.strings)) in
    let size = String.length image in
    let elem = if wide then Ast.Twchar else Ast.Tchar in
    let n = size / (if wide then 4 else 1) in
    env.md.m_globals <-
      { g_name = name; g_size = size; g_align = (if wide then 4 else 1);
        g_image = Bytes.of_string image; g_ty = Ast.Tarr (elem, n);
        g_internal = true; g_unsafe = true }
      :: env.md.m_globals;
    env.strings := (key, name) :: !(env.strings);
    name

let intern_string env s =
  intern_bytes env ~wide:false (s ^ "\000")

let intern_wstring env (a : int array) =
  let b = Buffer.create ((Array.length a + 1) * 4) in
  Array.iter
    (fun cp ->
       for k = 0 to 3 do
         Buffer.add_char b (Char.chr ((cp lsr (8 * k)) land 0xff))
       done)
    a;
  Buffer.add_string b "\000\000\000\000";
  intern_bytes env ~wide:true (Buffer.contents b)

(* --- static safety ------------------------------------------------------ *)

(* Is this lvalue's address statically within a directly named complete
   object?  Used to set the [safe] flag (paper: "statically proven
   in-bound with respect to its base object"). *)
let rec rooted_static env (e : Ast.expr) =
  match e.Ast.e with
  | Ident name ->
    (match lookup_local env name with
     | Some _ -> true
     | None -> Hashtbl.mem env.checked.Minic.Sema.globals name)
  | Field (a, _) -> rooted_static env a
  | Index (a, i) ->
    (match a.Ast.ety, i.Ast.e with
     | Tarr (_, n), Int (k, _) -> k >= 0 && k < n && rooted_static env a
     | _ -> false)
  | _ -> false

let scalar_size _env t =
  match decay t with
  | Ast.Tchar -> 1, true
  | Tshort -> 2, true
  | Tint | Twchar -> 4, true
  | Tlong -> 8, false
  | Tptr _ -> 8, false
  | t -> err "not a scalar type: %s" (Ast.ty_to_string t)

(* --- expressions --------------------------------------------------------- *)

let rec rval env (e : Ast.expr) : opnd =
  match e.Ast.e with
  | Int (v, _) -> Imm v
  | Str s -> Glob (intern_string env s)
  | Wstr a -> Glob (intern_wstring env a)
  | Ident name ->
    (match e.Ast.ety with
     | Tarr _ | Tstruct _ -> fst (lval env e)   (* decay to address *)
     | Tfun _ -> err "function pointers are not supported (%s)" name
     | _ ->
       let addr, safe = lval env e in
       let size, signed = scalar_size env e.Ast.ety in
       let dst = reg env in
       emit env (Iload { dst; addr; size; signed; safe });
       Reg dst)
  | Bin (op, a, b) -> lower_bin env op a b
  | Un (op, a) ->
    let v = rval env a in
    let dst = reg env in
    (match op with
     | Neg -> emit env (Ibin { op = Sub; dst; a = Imm 0; b = v })
     | Bnot -> emit env (Ibin { op = Xor; dst; a = v; b = Imm (-1) })
     | Lnot -> emit env (Icmp { op = Eq; dst; a = v; b = Imm 0 }));
    Reg dst
  | Addr a -> fst (lval env a)
  | Deref _ | Index _ | Field (_, _) | Arrow (_, _) ->
    (match e.Ast.ety with
     | Tarr _ | Tstruct _ -> fst (lval env e)
     | _ ->
       let addr, safe = lval env e in
       let size, signed = scalar_size env e.Ast.ety in
       let dst = reg env in
       emit env (Iload { dst; addr; size; signed; safe });
       Reg dst)
  | Assign (lhs, rhs) ->
    (match lhs.Ast.ety with
     | Tstruct _ ->
       let src = rval env rhs in
       let dst, _ = lval env lhs in
       let size = size_of env lhs.Ast.ety in
       emit env (Icall { dst = None; callee = "memcpy";
                         args = [ dst; src; Imm size ] });
       dst
     | _ ->
       let v = rval env rhs in
       let addr, safe = lval env lhs in
       let size, _ = scalar_size env lhs.Ast.ety in
       emit env (Istore { addr; src = v; size; safe });
       v)
  | Op_assign (op, lhs, rhs) ->
    let v = rval env rhs in
    let addr, safe = lval env lhs in
    let size, signed = scalar_size env lhs.Ast.ety in
    let old = reg env in
    emit env (Iload { dst = old; addr; size; signed; safe });
    let res =
      match decay lhs.Ast.ety, op with
      | Tptr t, (Add | Sub) ->
        let elem_size = size_of env t in
        let idx =
          if op = Ast.Add then v
          else begin
            let neg = reg env in
            emit env (Ibin { op = Sub; dst = neg; a = Imm 0; b = v });
            Reg neg
          end
        in
        let dst = reg env in
        emit env (Igep { dst; base = Reg old; idx = Some idx;
                         info = Gindex { elem_size; count = None } });
        Reg dst
      | _ ->
        let dst = reg env in
        emit env (Ibin { op = lower_arith op; dst; a = Reg old; b = v });
        Reg dst
    in
    emit env (Istore { addr; src = res; size; safe });
    res
  | Inc_dec { pre; inc; arg } ->
    let addr, safe = lval env arg in
    let size, signed = scalar_size env arg.Ast.ety in
    let old = reg env in
    emit env (Iload { dst = old; addr; size; signed; safe });
    let nv = reg env in
    (match decay arg.Ast.ety with
     | Tptr t ->
       let elem_size = size_of env t in
       emit env (Igep { dst = nv; base = Reg old;
                        idx = Some (Imm (if inc then 1 else -1));
                        info = Gindex { elem_size; count = None } })
     | _ ->
       emit env (Ibin { op = (if inc then Add else Sub); dst = nv;
                        a = Reg old; b = Imm 1 }));
    emit env (Istore { addr; src = Reg nv; size; safe });
    if pre then Reg nv else Reg old
  | Call (name, args) ->
    let argv = List.map (rval env) args in
    let void_ret =
      match Hashtbl.find_opt env.checked.Minic.Sema.funcs name with
      | Some (Tfun (Tvoid, _, _)) -> true
      | Some _ -> false
      | None ->
        (match Minic.Builtins.find name with
         | Some { ret = Tvoid; _ } -> true
         | _ -> false)
    in
    if void_ret then begin
      emit env (Icall { dst = None; callee = name; args = argv });
      Imm 0
    end else begin
      let dst = reg env in
      emit env (Icall { dst = Some dst; callee = name; args = argv });
      Reg dst
    end
  | Cast (t, a) ->
    let v = rval env a in
    (match t with
     | Tchar | Tshort | Tint | Twchar ->
       let bytes = size_of env t in
       let dst = reg env in
       emit env (Isext { dst; src = v; bytes });
       Reg dst
     | _ -> v)
  | Sizeof_ty t -> Imm (size_of env t)
  | Sizeof_expr a -> Imm (size_of env a.Ast.ety)
  | Cond (c, a, b) ->
    let cv = rval env c in
    let bt = new_block env and bf = new_block env and bj = new_block env in
    let dst = reg env in
    terminate env (Tcbr (cv, bt.b_id, bf.b_id));
    switch_to env bt;
    let va = rval env a in
    emit env (Imov { dst; src = va });
    terminate env (Tbr bj.b_id);
    switch_to env bf;
    let vb = rval env b in
    emit env (Imov { dst; src = vb });
    terminate env (Tbr bj.b_id);
    switch_to env bj;
    Reg dst
  | Comma (a, b) ->
    ignore (rval env a);
    rval env b

and lower_arith : Ast.binop -> binop = function
  | Add -> Add | Sub -> Sub | Mul -> Mul | Div -> Div | Mod -> Mod
  | Shl -> Shl | Shr -> Shr | Band -> And | Bor -> Or | Bxor -> Xor
  | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> assert false

and lower_bin env op a b =
  let ta = decay a.Ast.ety and tb = decay b.Ast.ety in
  match op with
  | Land | Lor ->
    (* short-circuit evaluation *)
    let dst = reg env in
    let b2 = new_block env and bj = new_block env in
    let va = rval env a in
    let nva = reg env in
    emit env (Icmp { op = Ne; dst = nva; a = va; b = Imm 0 });
    emit env (Imov { dst; src = Reg nva });
    (match op with
     | Land -> terminate env (Tcbr (Reg nva, b2.b_id, bj.b_id))
     | _ -> terminate env (Tcbr (Reg nva, bj.b_id, b2.b_id)));
    switch_to env b2;
    let vb = rval env b in
    let nvb = reg env in
    emit env (Icmp { op = Ne; dst = nvb; a = vb; b = Imm 0 });
    emit env (Imov { dst; src = Reg nvb });
    terminate env (Tbr bj.b_id);
    switch_to env bj;
    Reg dst
  | Eq | Ne | Lt | Le | Gt | Ge ->
    let va = rval env a in
    let vb = rval env b in
    let dst = reg env in
    let cop = match op with
      | Eq -> Eq | Ne -> Ne | Lt -> Lt | Le -> Le | Gt -> Gt | Ge -> Ge
      | _ -> assert false
    in
    emit env (Icmp { op = cop; dst; a = va; b = vb });
    Reg dst
  | Add when Ast.is_pointer ta || Ast.is_pointer tb ->
    let (pe, ie) = if Ast.is_pointer ta then (a, b) else (b, a) in
    let elem = match decay pe.Ast.ety with
      | Tptr t -> t
      | _ -> assert false
    in
    let base = rval env pe in
    let idx = rval env ie in
    let dst = reg env in
    emit env (Igep { dst; base; idx = Some idx;
                     info = Gindex { elem_size = size_of env elem;
                                     count = None } });
    Reg dst
  | Sub when Ast.is_pointer ta && Ast.is_pointer tb ->
    let va = rval env a in
    let vb = rval env b in
    let elem = match ta with Tptr t -> t | _ -> assert false in
    let d = reg env in
    emit env (Ibin { op = Sub; dst = d; a = va; b = vb });
    let es = size_of env elem in
    if es = 1 then Reg d
    else begin
      let q = reg env in
      emit env (Ibin { op = Div; dst = q; a = Reg d; b = Imm es });
      Reg q
    end
  | Sub when Ast.is_pointer ta ->
    let base = rval env a in
    let v = rval env b in
    let neg = reg env in
    emit env (Ibin { op = Sub; dst = neg; a = Imm 0; b = v });
    let elem = match ta with Tptr t -> t | _ -> assert false in
    let dst = reg env in
    emit env (Igep { dst; base; idx = Some (Reg neg);
                     info = Gindex { elem_size = size_of env elem;
                                     count = None } });
    Reg dst
  | _ ->
    let va = rval env a in
    let vb = rval env b in
    let dst = reg env in
    emit env (Ibin { op = lower_arith op; dst; a = va; b = vb });
    Reg dst

(* Address of an lvalue; the bool is the static-safety flag. *)
and lval env (e : Ast.expr) : opnd * bool =
  match e.Ast.e with
  | Ident name ->
    (match lookup_local env name with
     | Some l ->
       let dst = reg env in
       emit env (Islot { dst; slot = l.l_slot });
       let safe =
         match l.l_ty with
         | Tarr _ | Tstruct _ -> rooted_static env e
         | _ -> true
       in
       (Reg dst, safe)
     | None ->
       if Hashtbl.mem env.checked.Minic.Sema.globals name then
         (Glob name, true)
       else err "lvalue: unknown identifier %s" name)
  | Deref a -> (rval env a, false)
  | Index (a, i) ->
    let base, count =
      match a.Ast.ety with
      | Tarr (_, n) -> fst (lval env a), Some n
      | _ -> rval env a, None
    in
    let elem =
      match decay a.Ast.ety with
      | Tptr t -> t
      | t -> err "index on non-pointer %s" (Ast.ty_to_string t)
    in
    let idx = rval env i in
    let dst = reg env in
    emit env (Igep { dst; base; idx = Some idx;
                     info = Gindex { elem_size = size_of env elem; count } });
    (Reg dst, rooted_static env e)
  | Field (a, fname) ->
    let sname =
      match a.Ast.ety with
      | Tstruct s -> s
      | t -> err "field access on %s" (Ast.ty_to_string t)
    in
    let base, _ = lval env a in
    let f = Layout.field (layouts env) sname fname in
    let dst = reg env in
    emit env (Igep { dst; base; idx = None;
                     info = Gfield { off = f.Layout.f_off;
                                     fsize = f.Layout.f_size;
                                     fname; sname } });
    (Reg dst, rooted_static env e)
  | Arrow (a, fname) ->
    let sname =
      match decay a.Ast.ety with
      | Tptr (Tstruct s) -> s
      | t -> err "-> on %s" (Ast.ty_to_string t)
    in
    let base = rval env a in
    let f = Layout.field (layouts env) sname fname in
    let dst = reg env in
    emit env (Igep { dst; base; idx = None;
                     info = Gfield { off = f.Layout.f_off;
                                     fsize = f.Layout.f_size;
                                     fname; sname } });
    (Reg dst, false)
  | Cast (_, a) -> lval env a
  | Comma (a, b) ->
    ignore (rval env a);
    lval env b
  | _ -> err "expression is not an lvalue"

(* --- initializers -------------------------------------------------------- *)

(* Emits stores initializing the object at [addr+off] of type [ty].
   Initializer stores are compiler generated and statically in bounds,
   hence [safe = true]. *)
let rec lower_init env (addr : opnd) off (ty : Ast.ty) (init : Ast.init) =
  let field_addr off =
    if off = 0 then addr
    else begin
      (* plain byte-offset address computation, not a field access: the
         sub-object pass must not narrow initializer stores *)
      let dst = reg env in
      emit env (Igep { dst; base = addr; idx = Some (Imm off);
                       info = Gindex { elem_size = 1; count = None } });
      Reg dst
    end
  in
  match ty, init with
  | Ast.Tarr (Tchar, n), Init_expr { e = Str s; _ } ->
    let g = intern_string env s in
    let len = String.length s + 1 in
    emit env (Icall { dst = None; callee = "memcpy";
                      args = [ field_addr off; Glob g; Imm (min len n) ] });
    if n > len then
      emit env (Icall { dst = None; callee = "memset";
                        args = [ field_addr (off + len); Imm 0;
                                 Imm (n - len) ] })
  | Tarr (Twchar, n), Init_expr { e = Wstr a; _ } ->
    let g = intern_wstring env a in
    let len = (Array.length a + 1) * 4 in
    emit env (Icall { dst = None; callee = "memcpy";
                      args = [ field_addr off; Glob g; Imm (min len (n * 4)) ] });
    if n * 4 > len then
      emit env (Icall { dst = None; callee = "memset";
                        args = [ field_addr (off + len); Imm 0;
                                 Imm ((n * 4) - len) ] })
  | Tarr (elt, n), Init_list items ->
    let esize = size_of env elt in
    List.iteri (fun i item -> lower_init env addr (off + (i * esize)) elt item)
      items;
    let covered = List.length items in
    if covered < n then
      emit env (Icall { dst = None; callee = "memset";
                        args = [ field_addr (off + (covered * esize)); Imm 0;
                                 Imm ((n - covered) * esize) ] })
  | Tstruct s, Init_list items ->
    let l = Layout.struct_layout (layouts env) s in
    List.iteri
      (fun i item ->
         let f = List.nth l.Layout.s_fields i in
         lower_init env addr (off + f.Layout.f_off) f.Layout.f_ty item)
      items
  | _, Init_expr e ->
    let v = rval env e in
    let size, _ = scalar_size env ty in
    emit env (Istore { addr = field_addr off; src = v; size; safe = true })
  | _, Init_list _ -> err "brace initializer for scalar"

(* --- statements ---------------------------------------------------------- *)

let align_of_ty env t = Layout.align_of (layouts env) t

let rec lower_stmt env (s : Ast.stmt) =
  match s with
  | Sexpr e -> ignore (rval env e)
  | Sdecl (ty, name, init) ->
    let slot =
      { s_id = List.length env.f.f_slots; s_name = name;
        s_size = size_of env ty; s_align = align_of_ty env ty;
        s_ty = ty; s_unsafe = false }
    in
    env.f.f_slots <- env.f.f_slots @ [ slot ];
    add_local env name { l_slot = slot.s_id; l_ty = ty };
    (match init with
     | None -> ()
     | Some init ->
       let a = reg env in
       emit env (Islot { dst = a; slot = slot.s_id });
       lower_init env (Reg a) 0 ty init)
  | Sif (c, then_, else_) ->
    let cv = rval env c in
    let bt = new_block env in
    let bf = new_block env in
    let bj = new_block env in
    terminate env (Tcbr (cv, bt.b_id, bf.b_id));
    switch_to env bt;
    lower_block env then_;
    terminate env (Tbr bj.b_id);
    switch_to env bf;
    lower_block env else_;
    terminate env (Tbr bj.b_id);
    switch_to env bj
  | Swhile (c, body) ->
    let bh = new_block env in
    let bb = new_block env in
    let bx = new_block env in
    terminate env (Tbr bh.b_id);
    switch_to env bh;
    let cv = rval env c in
    terminate env (Tcbr (cv, bb.b_id, bx.b_id));
    switch_to env bb;
    env.breaks <- bx.b_id :: env.breaks;
    env.continues <- bh.b_id :: env.continues;
    lower_block env body;
    env.breaks <- List.tl env.breaks;
    env.continues <- List.tl env.continues;
    terminate env (Tbr bh.b_id);
    switch_to env bx
  | Sdo (body, c) ->
    let bb = new_block env in
    let bc = new_block env in
    let bx = new_block env in
    terminate env (Tbr bb.b_id);
    switch_to env bb;
    env.breaks <- bx.b_id :: env.breaks;
    env.continues <- bc.b_id :: env.continues;
    lower_block env body;
    env.breaks <- List.tl env.breaks;
    env.continues <- List.tl env.continues;
    terminate env (Tbr bc.b_id);
    switch_to env bc;
    let cv = rval env c in
    terminate env (Tcbr (cv, bb.b_id, bx.b_id));
    switch_to env bx
  | Sfor (init, cond, step, body) ->
    push_scope env;
    List.iter (lower_stmt env) init;
    let bh = new_block env in
    let bb = new_block env in
    let bs = new_block env in
    let bx = new_block env in
    terminate env (Tbr bh.b_id);
    switch_to env bh;
    (match cond with
     | None -> terminate env (Tbr bb.b_id)
     | Some c ->
       let cv = rval env c in
       terminate env (Tcbr (cv, bb.b_id, bx.b_id)));
    switch_to env bb;
    env.breaks <- bx.b_id :: env.breaks;
    env.continues <- bs.b_id :: env.continues;
    lower_block env body;
    env.breaks <- List.tl env.breaks;
    env.continues <- List.tl env.continues;
    terminate env (Tbr bs.b_id);
    switch_to env bs;
    Option.iter (fun e -> ignore (rval env e)) step;
    terminate env (Tbr bh.b_id);
    switch_to env bx;
    pop_scope env
  | Sreturn None -> seal_with_ret env None
  | Sreturn (Some e) ->
    let v = rval env e in
    seal_with_ret env (Some v)
  | Sbreak ->
    (match env.breaks with
     | tgt :: _ ->
       terminate env (Tbr tgt);
       switch_to env (new_block env)
     | [] -> err "break outside of loop")
  | Scontinue ->
    (match env.continues with
     | tgt :: _ ->
       terminate env (Tbr tgt);
       switch_to env (new_block env)
     | [] -> err "continue outside of loop")
  | Sblock body -> lower_block env body

and seal_with_ret env v =
  terminate env (Tret v);
  (* subsequent statements in the block are unreachable; park them in a
     fresh dead block *)
  switch_to env (new_block env)

and lower_block env body =
  push_scope env;
  List.iter (lower_stmt env) body;
  pop_scope env

(* --- constant evaluation for global initializers ------------------------- *)

let rec const_eval env (e : Ast.expr) : int =
  match e.Ast.e with
  | Int (v, _) -> v
  | Sizeof_ty t -> size_of env t
  | Sizeof_expr a -> size_of env a.Ast.ety
  | Un (Neg, a) -> -const_eval env a
  | Un (Bnot, a) -> lnot (const_eval env a)
  | Un (Lnot, a) -> if const_eval env a = 0 then 1 else 0
  | Bin (op, a, b) ->
    let x = const_eval env a and y = const_eval env b in
    (match op with
     | Add -> x + y | Sub -> x - y | Mul -> x * y
     | Div -> if y = 0 then err "division by zero in constant" else x / y
     | Mod -> if y = 0 then err "division by zero in constant" else x mod y
     | Shl -> x lsl y | Shr -> x asr y
     | Band -> x land y | Bor -> x lor y | Bxor -> x lxor y
     | Eq -> if x = y then 1 else 0
     | Ne -> if x <> y then 1 else 0
     | Lt -> if x < y then 1 else 0
     | Le -> if x <= y then 1 else 0
     | Gt -> if x > y then 1 else 0
     | Ge -> if x >= y then 1 else 0
     | Land -> if x <> 0 && y <> 0 then 1 else 0
     | Lor -> if x <> 0 || y <> 0 then 1 else 0)
  | Cast (t, a) ->
    let v = const_eval env a in
    let bytes = size_of env t in
    if bytes >= 8 then v
    else begin
      let bits = bytes * 8 in
      let m = (1 lsl bits) - 1 in
      let v = v land m in
      if v land (1 lsl (bits - 1)) <> 0 then v - (1 lsl bits) else v
    end
  | _ -> err "unsupported constant expression in global initializer"

let store_le image off v bytes =
  for k = 0 to bytes - 1 do
    Bytes.set image (off + k) (Char.chr ((v asr (8 * k)) land 0xff))
  done

let rec build_image env image off (ty : Ast.ty) (init : Ast.init) =
  match ty, init with
  | Ast.Tarr (Tchar, n), Init_expr { e = Str s; _ } ->
    String.iteri
      (fun i c -> if i < n then Bytes.set image (off + i) c)
      s
  | Tarr (Twchar, n), Init_expr { e = Wstr a; _ } ->
    Array.iteri
      (fun i cp -> if i < n then store_le image (off + (i * 4)) cp 4)
      a
  | Tarr (elt, _), Init_list items ->
    let esize = size_of env elt in
    List.iteri
      (fun i item -> build_image env image (off + (i * esize)) elt item)
      items
  | Tstruct s, Init_list items ->
    let l = Layout.struct_layout (layouts env) s in
    List.iteri
      (fun i item ->
         let f = List.nth l.Layout.s_fields i in
         build_image env image (off + f.Layout.f_off) f.Layout.f_ty item)
      items
  | _, Init_expr e ->
    let v = const_eval env e in
    let size, _ = scalar_size env ty in
    store_le image off v size
  | _, Init_list _ -> err "brace initializer for scalar global"

(* --- functions and module ------------------------------------------------ *)

let lower_func md checked strings (fd : Ast.func) =
  let body = match fd.Ast.fbody with Some b -> b | None -> assert false in
  let f =
    { f_name = fd.Ast.fname;
      f_params = List.mapi (fun i _ -> i) fd.Ast.fparams;
      f_nregs = List.length fd.Ast.fparams;
      f_slots = [];
      f_blocks = [||];
      f_external = false;
      f_ret_void = Ast.ty_equal fd.Ast.fret Tvoid;
      f_sig_ptrs =
        List.map
          (fun (t, _) -> Ast.is_pointer (Minic.Sema.decay t))
          fd.Ast.fparams;
      f_ret_ptr = Ast.is_pointer (Minic.Sema.decay fd.Ast.fret) }
  in
  let entry = { b_id = 0; b_instrs = []; b_term = Tret None } in
  let env =
    { md; checked; f; blocks = [ entry ]; nblocks = 1; cur = entry;
      cur_rev = []; sealed = false; scopes = [ [] ]; breaks = [];
      continues = []; strings }
  in
  (* parameters are spilled to slots so that & works on them; Promote
     moves the non-escaping ones back to registers *)
  List.iteri
    (fun i (pty, pname) ->
       let pty = match pty with Ast.Tarr (t, _) -> Ast.Tptr t | t -> t in
       let slot =
         { s_id = List.length env.f.f_slots; s_name = pname;
           s_size = Layout.size_of checked.Minic.Sema.layouts pty;
           s_align = Layout.align_of checked.Minic.Sema.layouts pty;
           s_ty = pty; s_unsafe = false }
       in
       env.f.f_slots <- env.f.f_slots @ [ slot ];
       add_local env pname { l_slot = slot.s_id; l_ty = pty };
       let a = reg env in
       emit env (Islot { dst = a; slot = slot.s_id });
       let size, _ = scalar_size env pty in
       emit env (Istore { addr = Reg a; src = Reg i; size; safe = true }))
    fd.Ast.fparams;
  lower_block env body;
  (* fall-off-the-end: return 0 from main, plain return elsewhere *)
  if not env.sealed then
    terminate env
      (if String.equal fd.Ast.fname "main" then Tret (Some (Imm 0))
       else Tret (if f.f_ret_void then None else Some (Imm 0)));
  flush_cur env;
  let blocks = Array.make env.nblocks entry in
  List.iter (fun b -> blocks.(b.b_id) <- b) env.blocks;
  f.f_blocks <- blocks;
  f

(* Lowers a checked program to a module.  [extern] declarations become
   external (uninstrumented) function stubs resolved at link/run time. *)
let lower (checked : Minic.Sema.checked) : modul =
  let md =
    { m_globals = []; m_funcs = Hashtbl.create 17;
      m_layouts = checked.Minic.Sema.layouts; m_next_site = 0;
      m_witnesses = []; m_certs = []; m_vcache = [] }
  in
  let strings = ref [] in
  List.iter
    (function
      | Ast.Dglobal g ->
        let size = Layout.size_of checked.Minic.Sema.layouts g.Ast.gty in
        let image = Bytes.make size '\000' in
        let env =
          { md; checked;
            f = { f_name = "<global-init>"; f_params = []; f_nregs = 0;
                  f_slots = []; f_blocks = [||]; f_external = false;
                  f_ret_void = true; f_sig_ptrs = []; f_ret_ptr = false };
            blocks = []; nblocks = 0;
            cur = { b_id = 0; b_instrs = []; b_term = Tret None };
            cur_rev = []; sealed = true; scopes = [ [] ]; breaks = [];
            continues = []; strings }
        in
        Option.iter (build_image env image 0 g.Ast.gty) g.Ast.ginit;
        md.m_globals <-
          { g_name = g.Ast.gname; g_size = size;
            g_align = Layout.align_of checked.Minic.Sema.layouts g.Ast.gty;
            g_image = image; g_ty = g.Ast.gty; g_internal = false;
            g_unsafe = false }
          :: md.m_globals
      | Dfunc fd ->
        (match fd.Ast.fbody with
         | Some _ ->
           let f = lower_func md checked strings fd in
           Hashtbl.replace md.m_funcs f.f_name f
         | None ->
           if not (Minic.Builtins.is_builtin fd.Ast.fname) then
             Hashtbl.replace md.m_funcs fd.Ast.fname
               { f_name = fd.Ast.fname;
                 f_params =
                   List.mapi (fun i _ -> i) fd.Ast.fparams;
                 f_nregs = List.length fd.Ast.fparams;
                 f_slots = []; f_blocks = [||]; f_external = true;
                 f_ret_void = Ast.ty_equal fd.Ast.fret Tvoid;
                 f_sig_ptrs =
                   List.map
                     (fun (t, _) -> Ast.is_pointer (Minic.Sema.decay t))
                     fd.Ast.fparams;
                 f_ret_ptr = Ast.is_pointer (Minic.Sema.decay fd.Ast.fret) })
      | Dstruct _ -> ())
    checked.Minic.Sema.prog;
  md.m_globals <- List.rev md.m_globals;
  md
