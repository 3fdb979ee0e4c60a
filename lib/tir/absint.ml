(* Tir.Absint: flow-sensitive abstract interpretation for certified
   check elision (DESIGN.md section 16).

   The interpreter is parameterized by a sanitizer's role table
   ([Analysis.spec]), so CECSan and the redzone baselines share the
   machinery.  Analysis of a function proceeds in three phases:

   1. object discovery: every stack slot, allocator intrinsic site,
      modeled allocator call and referenced global becomes an abstract
      object with a descriptor that is stable across Checkopt's own
      rewrites (so the optimizer's run and the verifier's certificate
      check name the same objects);
   2. derivation closure + escape: a flow-insensitive fixpoint maps
      each register to the set of objects it may derive from; objects
      stored as values, passed to defined functions or undeclared
      intrinsics, or returned, escape;
   3. flow fixpoint: interval/pointer values and the freed-set are
      propagated in reverse postorder sweeps over the blocks whose
      entry state changed, widening after a bounded number of joins so
      termination needs no assumptions.

   [check_cert] replaces phase 3 for a verifier holding the optimizer's
   block entry states: one RPO pass with the same [transfer_block]
   proves them a post-fixpoint instead of finding one.

   States are dense: one array slot per register in the range the
   function defines, Vtop stored explicitly, so joins and the order
   test are index scans.  A register outside that range is never
   defined, and reads as Vtop.

   Soundness notes bound to this VM (not real hardware):

   - OCaml/VM integer arithmetic wraps silently, so interval addition
     and multiplication go to Vtop whenever a corner overflows;
   - pointer-offset arithmetic saturates to the full range instead:
     a full-range offset can never satisfy {!in_bounds}, so a wrapped
     offset can never justify an elision, while the object identity is
     retained for spatial-only downgrades (which run the same check
     semantics and therefore cannot regress detection);
   - a free whose argument is imprecise releases every escaped object
     plus everything derivable from the argument register -- a
     non-escaping object's address cannot reach a free site any other
     way, because reaching one without a store or call *is* escape. *)

open Ir

module Int_set = Set.Make (Int)

type aval =
  | Vtop
  | Vint of int * int
  | Vptr of { obj : int; lo : int; hi : int }

type obj = {
  o_id : int;
  o_desc : string;
  o_size : int;
  mutable o_escapes : bool;
}

type state = {
  s_base : int;                 (* register held in s_regs.(0) *)
  s_regs : aval array;
  mutable s_freed : Int_set.t;
}

type ctx = {
  cx_spec : Analysis.spec;
  cx_pure : string -> bool;
  cx_defined : (string, unit) Hashtbl.t;
  cx_gpt : (int, string) Hashtbl.t;
  cx_globsize : (string, int) Hashtbl.t;
}

let make_ctx (spec : Analysis.spec) ~(pure : string -> bool) (md : modul) :
  ctx =
  let gpt : (int, string) Hashtbl.t = Hashtbl.create 17 in
  if
    List.exists (fun (_, r) -> r = Analysis.Global_make)
      spec.intrinsics.declared
  then
    iter_funcs md (fun f ->
        Array.iter
          (fun b ->
             List.iter
               (fun i ->
                  match i with
                  | Iintrin { name; args = Glob g :: _ :: Imm k :: _; _ }
                    when Analysis.meaning spec name = Role Global_make ->
                    Hashtbl.replace gpt k g
                  | _ -> ())
               b.b_instrs)
          f.f_blocks);
  let globsize = Hashtbl.create 17 in
  List.iter (fun g -> Hashtbl.replace globsize g.g_name g.g_size) md.m_globals;
  let defined = Hashtbl.create 17 in
  Hashtbl.iter (fun name _ -> Hashtbl.replace defined name ()) md.m_funcs;
  { cx_spec = spec; cx_pure = pure; cx_defined = defined; cx_gpt = gpt;
    cx_globsize = globsize }

(* The size rule of a modeled allocator call, if [callee] is one. *)
let call_alloc (cx : ctx) callee =
  match Hashtbl.find_opt cx.cx_spec.calls.table callee with
  | Some (Role (Alloc rule | Realloc rule)) -> Some rule
  | _ -> None

(* Whether a modeled call frees its argument 0 (free, realloc). *)
let call_frees (cx : ctx) callee =
  match Hashtbl.find_opt cx.cx_spec.calls.table callee with
  | Some (Role (Free | Realloc _)) -> true
  | _ -> false

(* --- lattice ------------------------------------------------------------ *)

let regval (st : state) (r : int) : aval =
  let k = r - st.s_base in
  if k >= 0 && k < Array.length st.s_regs then st.s_regs.(k) else Vtop

(* In place: [r] is defined by the instruction being transferred, so
   it is inside the range of the function's states. *)
let set_val (st : state) (r : int) (v : aval) : unit =
  st.s_regs.(r - st.s_base) <- v

let copy (st : state) : state = { st with s_regs = Array.copy st.s_regs }

let iter_regs (k : int -> aval -> unit) (st : state) : unit =
  Array.iteri
    (fun i v -> match v with Vtop -> () | _ -> k (st.s_base + i) v)
    st.s_regs

let all_top (st : state) =
  Array.for_all (function Vtop -> true | _ -> false) st.s_regs

let join_val a b =
  match a, b with
  | Vint (l1, h1), Vint (l2, h2) -> Vint (min l1 l2, max h1 h2)
  | Vptr p, Vptr q when p.obj = q.obj ->
    Vptr { obj = p.obj; lo = min p.lo q.lo; hi = max p.hi q.hi }
  | _ -> Vtop

let union_freed a b =
  if a.s_freed == b.s_freed then a.s_freed
  else Int_set.union a.s_freed b.s_freed

(* Joins and widening only meet states of one analysis, which share
   their layout. *)
let join_state a b =
  if a == b then a
  else
    { s_base = a.s_base;
      s_regs =
        Array.map2 (fun x y -> if x == y then x else join_val x y)
          a.s_regs b.s_regs;
      s_freed = union_freed a b }

let val_leq a b =
  match a, b with
  | _, Vtop -> true
  | Vtop, _ -> false
  | Vint (l1, h1), Vint (l2, h2) -> l2 <= l1 && h1 <= h2
  | Vptr p, Vptr q -> p.obj = q.obj && q.lo <= p.lo && p.hi <= q.hi
  | _ -> false

(* a [= b, for states of one layout. *)
let state_leq a b =
  a == b
  || (a.s_freed == b.s_freed || Int_set.subset a.s_freed b.s_freed)
     &&
     let ra = a.s_regs and rb = b.s_regs in
     let ok = ref true and k = ref 0 in
     while !ok && !k < Array.length ra do
       let x = ra.(!k) and y = rb.(!k) in
       if not (x == y || val_leq x y) then ok := false;
       incr k
     done;
     !ok

let widen_val old v =
  if val_leq v old then old
  else
    match old, v with
    | Vptr p, Vptr q when p.obj = q.obj ->
      Vptr { obj = p.obj; lo = min_int; hi = max_int }
    | _ -> Vtop

(* [v] is always [join old incoming]; the freed-set is finite and
   needs no widening. *)
let widen_state old v =
  { s_base = old.s_base;
    s_regs =
      Array.map2 (fun o n -> if o == n then o else widen_val o n)
        old.s_regs v.s_regs;
    s_freed = v.s_freed }

(* --- arithmetic --------------------------------------------------------- *)

(* Integer intervals: the VM wraps silently, so a wrapped corner makes
   the whole interval meaningless -> Vtop. *)
let int_add l1 h1 l2 h2 =
  match Scev.add_no_ov l1 l2, Scev.add_no_ov h1 h2 with
  | Some l, Some h -> Vint (l, h)
  | _ -> Vtop

let int_sub l1 h1 l2 h2 =
  match Scev.sub_no_ov l1 h2, Scev.sub_no_ov h1 l2 with
  | Some l, Some h -> Vint (l, h)
  | _ -> Vtop

let int_mul l1 h1 l2 h2 =
  match
    Scev.mul_no_ov l1 l2, Scev.mul_no_ov l1 h2,
    Scev.mul_no_ov h1 l2, Scev.mul_no_ov h1 h2
  with
  | Some a, Some b, Some c, Some d ->
    Vint (min (min a b) (min c d), max (max a b) (max c d))
  | _ -> Vtop

(* Pointer offsets saturate to the full range on overflow: the object
   identity survives (for downgrades) while {!in_bounds} can never hold
   on a saturated bound, so no elision can rest on wrapped math. *)
let shift_ptr ~obj ~lo ~hi dl dh =
  match Scev.add_no_ov lo dl, Scev.add_no_ov hi dh with
  | Some l, Some h -> Vptr { obj; lo = l; hi = h }
  | _ -> Vptr { obj; lo = min_int; hi = max_int }

let in_bounds ~lo ~hi ~size ~objsize =
  objsize >= 0 && size >= 0 && lo >= 0
  && (match Scev.add_no_ov hi size with
      | Some e -> e <= objsize
      | None -> false)

(* --- object discovery --------------------------------------------------- *)

type fenv = {
  fe_cx : ctx;
  fe_objs : obj array;
  fe_slot_obj : (int, int) Hashtbl.t;   (* slot id -> obj *)
  fe_site_obj : (int, int) Hashtbl.t;   (* alloc intrinsic site -> obj *)
  fe_call_obj : (int * int, int) Hashtbl.t;  (* (block, ordinal) -> obj *)
  fe_glob_obj : (string, int) Hashtbl.t;
  fe_derived : Int_set.t array;         (* reg -> may-derive-from objs *)
  fe_escaped : Int_set.t;
  fe_base : int;                        (* state layout: the lowest and *)
  fe_len : int;                         (*   count of defined registers *)
}

(* A summary's site states, derived on demand: a site's state is its
   block's entry state transferred up to the site, and each block is
   transferred at most once per summary.  The code is the function's as
   it was analysed, so a caller may rewrite the function between
   queries (Checkopt does). *)
type sites = {
  si_fe : fenv;
  si_code : instr list array;               (* block -> instructions *)
  si_rpo : int array;
  mutable si_block : (int, int) Hashtbl.t option;  (* site -> block *)
  si_memo : block_sites option array;
  mutable si_facts : int;                   (* -1 until counted *)
}

and block_sites = {
  bs_states : (int * state) list;  (* before each site, the last first *)
  bs_facts : int;                  (* check sites with a pointer fact *)
}

type summary = {
  su_func : string;
  su_objs : obj array;
  su_block_in : state option array;
  su_sites : sites;
}

let alloc_size (rule : Analysis.size_rule) args =
  let const k =
    match List.nth_opt args k with Some (Imm v) -> Some v | _ -> None
  in
  match rule with
  | Sarg k -> (match const k with Some v -> v | None -> -1)
  | Sprod (i, j) ->
    (match const i, const j with
     | Some a, Some b ->
       (match Scev.mul_no_ov a b with Some p -> p | None -> -1)
     | _ -> -1)

let discover (cx : ctx) (f : func) =
  let spec = cx.cx_spec in
  let objs = ref [] and nobjs = ref 0 in
  let fresh desc size escapes =
    let o = { o_id = !nobjs; o_desc = desc; o_size = size;
              o_escapes = escapes } in
    incr nobjs;
    objs := o :: !objs;
    o.o_id
  in
  let slot_obj = Hashtbl.create 8 and site_obj = Hashtbl.create 8 in
  let call_obj = Hashtbl.create 8 and glob_obj = Hashtbl.create 8 in
  let slot_by_id = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace slot_by_id s.s_id s) f.f_slots;
  (* globals always escape: their address is reachable from anywhere *)
  let ensure_glob g =
    if not (Hashtbl.mem glob_obj g) then
      let size =
        Option.value (Hashtbl.find_opt cx.cx_globsize g) ~default:(-1)
      in
      Hashtbl.replace glob_obj g (fresh ("global:" ^ g) size true)
  in
  let opnd_glob = function Glob g -> ensure_glob g | Reg _ | Imm _ -> () in
  Array.iter
    (fun b ->
       let ord = ref 0 in
       List.iter
         (fun i ->
            iter_opnds opnd_glob i;
            match i with
            | Islot { slot; _ } when spec.slots ->
              if not (Hashtbl.mem slot_obj slot) then
                (match Hashtbl.find_opt slot_by_id slot with
                 | Some s ->
                   Hashtbl.replace slot_obj slot
                     (fresh (Printf.sprintf "slot:%s:%d" s.s_name s.s_id)
                        s.s_size false)
                 | None -> ())
            | Iintrin { name; args; site; _ } ->
              (match Analysis.meaning spec name, args with
               | Role (Alloc rule | Realloc rule), _ ->
                 Hashtbl.replace site_obj site
                   (fresh (Printf.sprintf "%s#%d" name site)
                      (alloc_size rule args) false)
               | Role Gpt_load, Imm k :: _ ->
                 (match Hashtbl.find_opt cx.cx_gpt k with
                  | Some gname -> ensure_glob gname
                  | None -> ())
               | _ -> ())
            | Icall { callee; args; _ } ->
              (match call_alloc cx callee with
               | Some rule ->
                 Hashtbl.replace call_obj (b.b_id, !ord)
                   (fresh
                      (Printf.sprintf "call:%s:b%d:%d" callee b.b_id !ord)
                      (alloc_size rule args) false);
                 incr ord
               | None -> ())
            | _ -> ())
         b.b_instrs)
    f.f_blocks;
  let arr = Array.of_list (List.rev !objs) in
  (arr, slot_obj, site_obj, call_obj, glob_obj)

(* --- derivation closure and escape -------------------------------------- *)

let derive_and_escape ?fuel (cx : ctx) (f : func) ~objs ~slot_obj ~site_obj
    ~call_obj ~glob_obj =
  let spec = cx.cx_spec in
  let nregs = max f.f_nregs 1 in
  let derived = Array.make nregs Int_set.empty in
  let changed = ref true in
  (* registers outside [0, nregs) -- only in malformed IR -- derive
     nothing *)
  let add r s =
    if r >= 0 && r < nregs && not (Int_set.subset s derived.(r)) then begin
      derived.(r) <- Int_set.union derived.(r) s;
      changed := true
    end
  in
  let get = function
    | Reg r when r >= 0 && r < nregs -> derived.(r)
    | Glob g ->
      (match Hashtbl.find_opt glob_obj g with
       | Some id -> Int_set.singleton id
       | None -> Int_set.empty)
    | _ -> Int_set.empty
  in
  let arg0 args = match args with a :: _ -> get a | [] -> Int_set.empty in
  while !changed do
    changed := false;
    Fuel.burn fuel (Array.length f.f_blocks);
    Array.iter
      (fun b ->
         let ord = ref 0 in
         List.iter
           (fun i ->
              match i with
              | Islot { dst; slot } when spec.slots ->
                (match Hashtbl.find_opt slot_obj slot with
                 | Some id -> add dst (Int_set.singleton id)
                 | None -> ())
              | Imov { dst; src } -> add dst (get src)
              | Isext { dst; src; _ } -> add dst (get src)
              | Ibin { dst; a; b = b'; _ } ->
                add dst (Int_set.union (get a) (get b'))
              | Igep { dst; base; idx; _ } ->
                add dst
                  (Int_set.union (get base)
                     (match idx with Some o -> get o | None -> Int_set.empty))
              | Iintrin { dst = None; _ } -> ()
              | Iintrin { dst = Some d; name; args; site } ->
                (match Analysis.meaning spec name, args with
                 | Role (Alloc _ | Realloc _), _ ->
                   (match Hashtbl.find_opt site_obj site with
                    | Some id -> add d (Int_set.singleton id)
                    | None -> ())
                 | (Check _ | Spatial _), _ when spec.produces_addr ->
                   add d (arg0 args)
                 | Role (Make | Strip), _ -> add d (arg0 args)
                 | Role Gpt_load, Imm k :: _ ->
                   (match Hashtbl.find_opt cx.cx_gpt k with
                    | Some gname ->
                      (match Hashtbl.find_opt glob_obj gname with
                       | Some id -> add d (Int_set.singleton id)
                       | None -> ())
                    | None -> ())
                 | _ -> ())
              | Icall { dst; callee; _ } ->
                (match dst with
                 | None -> ()
                 | Some d ->
                   (match call_alloc cx callee with
                    | Some _ ->
                      (match Hashtbl.find_opt call_obj (b.b_id, !ord) with
                       | Some id -> add d (Int_set.singleton id)
                       | None -> ());
                      incr ord
                    | None -> ()))
              | Icmp _ | Iload _ | Istore _ | Islot _ -> ())
           b.b_instrs)
      f.f_blocks
  done;
  (* escape pass: an object escapes when its address is stored as a
     value, passed to a defined function or an undeclared intrinsic,
     handed to an undefined non-neutral callee, or returned.  Pure
     *defined* callees still escape their arguments: purity only says
     no metadata is touched inside, not that the pointer is forgotten,
     and a later impure call could free whatever was remembered. *)
  let escaped = ref Int_set.empty in
  let esc s = escaped := Int_set.union !escaped s in
  Array.iter
    (fun b ->
       List.iter
         (fun i ->
            match i with
            | Istore { src; _ } -> esc (get src)
            | Icall { callee; args; _ } ->
              if
                call_alloc cx callee <> None || call_frees cx callee
                || ((not (Hashtbl.mem cx.cx_defined callee))
                    && cx.cx_pure callee)
              then ()
              else List.iter (fun a -> esc (get a)) args
            | Iintrin { name; args; _ } ->
              (match Analysis.meaning spec name with
               | Undeclared -> List.iter (fun a -> esc (get a)) args
               | _ -> ())
            | _ -> ())
         b.b_instrs;
       match b.b_term with
       | Tret (Some o) -> esc (get o)
       | _ -> ())
    f.f_blocks;
  Int_set.iter
    (fun id -> if id < Array.length objs then objs.(id).o_escapes <- true)
    !escaped;
  Array.iter (fun (o : obj) -> if o.o_escapes then esc (Int_set.singleton o.o_id)) objs;
  (derived, !escaped)

(* --- flow transfer ------------------------------------------------------ *)

(* Operand values and the freed-set updates of [transfer]; top-level so
   that transferring an instruction builds no closures. *)
let opnd_val (fe : fenv) (st : state) = function
  | Imm v -> Vint (v, v)
  | Glob g ->
    (match Hashtbl.find_opt fe.fe_glob_obj g with
     | Some id -> Vptr { obj = id; lo = 0; hi = 0 }
     | None -> Vtop)
  | Reg r -> regval st r

let arg0_val fe st = function a :: _ -> opnd_val fe st a | [] -> Vtop

let free_all (fe : fenv) (st : state) extra =
  st.s_freed <- Int_set.union st.s_freed (Int_set.union fe.fe_escaped extra)

(* free with an imprecise argument: every escaped object plus
   everything derivable from the argument may be gone *)
let free_arg (fe : fenv) (st : state) arg =
  match arg with
  | Some a ->
    (match opnd_val fe st a with
     | Vptr { obj; _ } -> st.s_freed <- Int_set.add obj st.s_freed
     | _ ->
       free_all fe st
         (match a with
          | Reg r when r >= 0 && r < Array.length fe.fe_derived ->
            fe.fe_derived.(r)
          | Glob g ->
            (match Hashtbl.find_opt fe.fe_glob_obj g with
             | Some id -> Int_set.singleton id
             | None -> Int_set.empty)
          | _ -> Int_set.empty))
  | None -> free_all fe st Int_set.empty

let set_dst st dst v = match dst with Some d -> set_val st d v | None -> ()

(* a compare's result, shared *)
let vbool = Vint (0, 1)

(* Updates [st] in place. *)
let transfer (fe : fenv) (bid : int) (ord : int ref) (st : state)
    (i : instr) : unit =
  let spec = fe.fe_cx.cx_spec in
  match i with
  | Imov { dst; src } -> set_val st dst (opnd_val fe st src)
  | Isext { dst; src; bytes } ->
    let v = opnd_val fe st src in
    set_val st dst
      (if bytes >= 8 then v
       else
         match v with
         | Vint (l, h) ->
           let half = 1 lsl ((8 * bytes) - 1) in
           if l >= -half && h < half then v else Vtop
         | _ -> Vtop)
  | Ibin { op; dst; a; b } ->
    let va = opnd_val fe st a and vb = opnd_val fe st b in
    let v =
      match op, va, vb with
      | Add, Vptr { obj; lo; hi }, Vint (l, h)
      | Add, Vint (l, h), Vptr { obj; lo; hi } ->
        shift_ptr ~obj ~lo ~hi l h
      | Add, Vint (l1, h1), Vint (l2, h2) -> int_add l1 h1 l2 h2
      | Sub, Vptr { obj; lo; hi }, Vint (l, h) ->
        (match Scev.sub_no_ov lo h, Scev.sub_no_ov hi l with
         | Some l', Some h' -> Vptr { obj; lo = l'; hi = h' }
         | _ -> Vptr { obj; lo = min_int; hi = max_int })
      | Sub, Vint (l1, h1), Vint (l2, h2) -> int_sub l1 h1 l2 h2
      | Mul, Vint (l1, h1), Vint (l2, h2) -> int_mul l1 h1 l2 h2
      | And, Vptr p, Vint (l, h)
        when l = h && l = spec.strip_mask ->
        Vptr { obj = p.obj; lo = p.lo; hi = p.hi }
      | _ -> Vtop
    in
    set_val st dst v
  | Icmp { dst; _ } -> set_val st dst vbool
  | Iload { dst; _ } -> set_val st dst Vtop
  | Islot { dst; slot } ->
    (match Hashtbl.find_opt fe.fe_slot_obj slot with
     | Some id when spec.slots ->
       set_val st dst (Vptr { obj = id; lo = 0; hi = 0 })
     | _ -> set_val st dst Vtop)
  | Igep { dst; base; idx; info } ->
    (match opnd_val fe st base with
     | Vptr { obj; lo; hi } ->
       let delta =
         match info, idx with
         | Gfield { off; _ }, _ -> Some (off, off)
         | Gindex { elem_size; _ }, Some ix ->
           (match opnd_val fe st ix with
            | Vint (l, h) ->
              (match
                 Scev.mul_no_ov l elem_size, Scev.mul_no_ov h elem_size
               with
               | Some a, Some b -> Some (min a b, max a b)
               | _ -> None)
            | _ -> None)
         | Gindex _, None -> None
       in
       set_val st dst
         (match delta with
          | Some (dl, dh) -> shift_ptr ~obj ~lo ~hi dl dh
          | None -> Vptr { obj; lo = min_int; hi = max_int })
     | _ -> set_val st dst Vtop)
  | Istore _ -> ()
  | Icall { dst; callee; args } ->
    let frees = call_frees fe.fe_cx callee in
    if frees then free_arg fe st (List.nth_opt args 0);
    (match call_alloc fe.fe_cx callee with
     | Some _ ->
       let id = Hashtbl.find_opt fe.fe_call_obj (bid, !ord) in
       incr ord;
       set_dst st dst
         (match id with
          | Some obj -> Vptr { obj; lo = 0; hi = 0 }
          | None -> Vtop)
     | None ->
       if not (frees || fe.fe_cx.cx_pure callee)
       then free_all fe st Int_set.empty;
       set_dst st dst Vtop)
  | Iintrin { dst; name; args; site } ->
    (match Analysis.meaning spec name with
     | Marker -> ()
     | Check _ | Spatial _ ->
       set_dst st dst
         (if spec.produces_addr then arg0_val fe st args else Vtop)
     | Role ((Alloc _ | Realloc _) as r) ->
       (* realloc: the free leg applies before the fresh object *)
       (match r with
        | Realloc _ -> free_arg fe st (List.nth_opt args 0)
        | _ -> ());
       set_dst st dst
         (match Hashtbl.find_opt fe.fe_site_obj site with
          | Some obj -> Vptr { obj; lo = 0; hi = 0 }
          | None -> Vtop)
     | Role Free ->
       free_arg fe st (List.nth_opt args 0);
       set_dst st dst Vtop
     | Role (Make | Strip) -> set_dst st dst (arg0_val fe st args)
     | Role Gpt_load ->
       set_dst st dst
         (match args with
          | Imm k :: _ ->
            (match Hashtbl.find_opt fe.fe_cx.cx_gpt k with
             | Some gname ->
               (match Hashtbl.find_opt fe.fe_glob_obj gname with
                | Some obj -> Vptr { obj; lo = 0; hi = 0 }
                | None -> Vtop)
             | None -> Vtop)
          | _ -> Vtop)
     | Role (Global_make | Opaque | Neutral) -> set_dst st dst Vtop
     | Undeclared ->
       (* worst case *)
       free_all fe st
         (List.fold_left
            (fun acc a ->
               match a with
               | Reg r when r >= 0 && r < Array.length fe.fe_derived ->
                 Int_set.union acc fe.fe_derived.(r)
               | _ -> acc)
            Int_set.empty args);
       set_dst st dst Vtop)

(* The exit state of block [bid], whose code is [instrs], from its
   entry state [st0], which is copied once and then updated in place.
   [record] sees a copy of the state before every intrinsic site. *)
let transfer_block (fe : fenv) bid (instrs : instr list) (st0 : state)
    ~(record : (int -> state -> instr -> unit) option) : state =
  let st = copy st0 in
  let ord = ref 0 in
  List.iter
    (fun i ->
       (match record, i with
        | Some k, Iintrin { site; _ } when site >= 0 -> k site (copy st) i
        | _ -> ());
       transfer fe bid ord st i)
    instrs;
  st

(* --- driver ------------------------------------------------------------- *)

let widen_threshold = 3

(* Phases 1 and 2, and the state layout: the registers the function
   defines, lowest to highest (malformed IR included, whose negative or
   over-range registers must keep their meaning). *)
let make_fenv ?fuel (cx : ctx) (f : func) : fenv =
  let objs, slot_obj, site_obj, call_obj, glob_obj = discover cx f in
  let derived, escaped =
    derive_and_escape ?fuel cx f ~objs ~slot_obj ~site_obj ~call_obj
      ~glob_obj
  in
  let lo = ref max_int and hi = ref min_int in
  let bound d =
    if d < !lo then lo := d;
    if d > !hi then hi := d
  in
  Array.iter (fun b -> List.iter (iter_def bound) b.b_instrs) f.f_blocks;
  let base, len = if !lo > !hi then (0, 0) else (!lo, !hi - !lo + 1) in
  { fe_cx = cx; fe_objs = objs; fe_slot_obj = slot_obj;
    fe_site_obj = site_obj; fe_call_obj = call_obj; fe_glob_obj = glob_obj;
    fe_derived = derived; fe_escaped = escaped; fe_base = base;
    fe_len = len }

let initial (fe : fenv) : state =
  { s_base = fe.fe_base; s_regs = Array.make fe.fe_len Vtop;
    s_freed = Int_set.empty }

(* --- site states on demand ---------------------------------------------- *)

let summarize (fe : fenv) (f : func) (cfg : Cfg.t)
    (block_in : state option array) : summary =
  let nb = Array.length f.f_blocks in
  { su_func = f.f_name; su_objs = fe.fe_objs; su_block_in = block_in;
    su_sites =
      { si_fe = fe; si_code = Array.map (fun b -> b.b_instrs) f.f_blocks;
        si_rpo = cfg.Cfg.rpo; si_block = None; si_memo = Array.make nb None;
        si_facts = -1 } }

let is_fact_site fe st = function
  | Iintrin { name; args = Reg p :: _; _ } ->
    (match Analysis.meaning fe.fe_cx.cx_spec name, regval st p with
     | (Check _ | Spatial _), Vptr _ -> true
     | _ -> false)
  | _ -> false

(* The states before each site of a reachable block, transferred once. *)
let block_sites (su : summary) bid : block_sites =
  let si = su.su_sites in
  match si.si_memo.(bid) with
  | Some bs -> bs
  | None ->
    let states = ref [] and facts = ref 0 in
    (match su.su_block_in.(bid) with
     | None -> ()
     | Some st ->
       ignore
         (transfer_block si.si_fe bid si.si_code.(bid) st
            ~record:
              (Some
                 (fun site st i ->
                    states := (site, st) :: !states;
                    if is_fact_site si.si_fe st i then incr facts))));
    let bs = { bs_states = !states; bs_facts = !facts } in
    si.si_memo.(bid) <- Some bs;
    bs

(* Reachable blocks with a state, in reverse postorder. *)
let iter_live_blocks (su : summary) k =
  Array.iter
    (fun bid -> if Option.is_some su.su_block_in.(bid) then k bid)
    su.su_sites.si_rpo

(* Which block holds each site: the last in reverse postorder, as a
   sweep recording every site in that order would leave it. *)
let site_blocks (su : summary) : (int, int) Hashtbl.t =
  match su.su_sites.si_block with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 16 in
    iter_live_blocks su (fun bid ->
        List.iter
          (function
            | Iintrin { site; _ } when site >= 0 -> Hashtbl.replace h site bid
            | _ -> ())
          su.su_sites.si_code.(bid));
    su.su_sites.si_block <- Some h;
    h

let site_state (su : summary) site : state option =
  match Hashtbl.find_opt (site_blocks su) site with
  | None -> None
  | Some bid -> List.assoc_opt site (block_sites su bid).bs_states

let sites (su : summary) : int list =
  Hashtbl.fold (fun site _ acc -> site :: acc) (site_blocks su) []
  |> List.sort Int.compare

let facts (su : summary) : int =
  let si = su.su_sites in
  if si.si_facts < 0 then begin
    let n = ref 0 in
    iter_live_blocks su (fun bid ->
        if
          List.exists
            (function
              | Iintrin { name; args = Reg _ :: _; _ } ->
                (match Analysis.meaning si.si_fe.fe_cx.cx_spec name with
                 | Check _ | Spatial _ -> true
                 | _ -> false)
              | _ -> false)
            si.si_code.(bid)
        then n := !n + (block_sites su bid).bs_facts);
    si.si_facts <- !n
  end;
  si.si_facts

let analyze ?fuel (cx : ctx) (f : func) : summary =
  let fe = make_fenv ?fuel cx f in
  let cfg = Cfg.build f in
  let nb = Array.length f.f_blocks in
  let in_state : state option array = Array.make nb None in
  let updates = Array.make nb 0 in
  (* dirty: IN changed since the block's last transfer.  IN states only
     grow, so a clean block's OUT -- a function of IN alone -- is still
     below every successor's IN and would update nothing: skipping it
     leaves every update, widening point and sweep count as a full
     round-robin pass would have them. *)
  let dirty = Array.make nb false in
  if nb > 0 then begin
    in_state.(0) <- Some (initial fe);
    dirty.(0) <- true
  end;
  let changed = ref true in
  while !changed do
    changed := false;
    Fuel.burn fuel (Array.length cfg.Cfg.rpo);
    Array.iter
      (fun bid ->
         match in_state.(bid) with
         | Some st when dirty.(bid) ->
           dirty.(bid) <- false;
           let out =
             transfer_block fe bid f.f_blocks.(bid).b_instrs st ~record:None
           in
           List.iter
             (fun succ ->
                match in_state.(succ) with
                | None ->
                  in_state.(succ) <- Some out;
                  dirty.(succ) <- true;
                  changed := true
                | Some old ->
                  (* join old out [= old exactly when out [= old, so the
                     usual no-change edge builds no state *)
                  if not (state_leq out old) then begin
                    updates.(succ) <- updates.(succ) + 1;
                    let j = join_state old out in
                    in_state.(succ) <-
                      Some
                        (if updates.(succ) > widen_threshold then
                           widen_state old j
                         else j);
                    dirty.(succ) <- true;
                    changed := true
                  end)
             (successors f.f_blocks.(bid).b_term)
         | _ -> ())
      cfg.Cfg.rpo
  done;
  summarize fe f cfg in_state

(* --- the certificate ------------------------------------------------------ *)

type cert = { c_func : string; c_block_in : state option array }

type Ir.cert += Fixpoint of cert

let certificate (su : summary) : Ir.cert =
  Fixpoint { c_func = su.su_func; c_block_in = su.su_block_in }

(* Any claimed entry states that pass are a post-fixpoint of the same
   transfer function [analyze] iterates: they contain the initial state
   and are closed under every edge, so the site states recorded from
   them over-approximate every execution exactly as the least fixpoint's
   do.  Phases 1 and 2 are re-run here, so object numbering is the
   checker's own. *)
let check_cert ?fuel (cx : ctx) (f : func) (c : cert) :
  (summary, string) result =
  let fe = make_fenv ?fuel cx f in
  let claimed = c.c_block_in in
  let nb = Array.length f.f_blocks in
  let other_layout = function
    | Some st ->
      st.s_base <> fe.fe_base || Array.length st.s_regs <> fe.fe_len
    | None -> false
  in
  if Array.length claimed <> nb then
    Error
      (Printf.sprintf "certificate covers %d blocks, the function has %d"
         (Array.length claimed) nb)
  else if Array.exists other_layout claimed then
    Error "certificate states are not laid out for the registers the \
           function defines"
  else
    match if nb > 0 then claimed.(0) else Some (initial fe) with
    | None -> Error "certificate claims the entry block unreachable"
    | Some st when not (state_leq (initial fe) st) ->
      Error "certificate entry state is not the initial state"
    | Some _ ->
      let cfg = Cfg.build f in
      Fuel.burn fuel (Array.length cfg.Cfg.rpo);
      let bad = ref None in
      let edge src out succ =
        if Option.is_none !bad then
          match claimed.(succ) with
          | None ->
            bad :=
              Some
                (Printf.sprintf
                   "b%d reaches b%d, which the certificate claims \
                    unreachable" src succ)
          | Some inn ->
            if not (state_leq out inn) then
              bad :=
                Some
                  (Printf.sprintf
                     "b%d exits in a state the certificate's entry state \
                      for b%d does not contain" src succ)
      in
      Array.iter
        (fun bid ->
           match claimed.(bid) with
           | None -> ()
           | Some st ->
             let b = f.f_blocks.(bid) in
             let out = transfer_block fe bid b.b_instrs st ~record:None in
             List.iter (edge bid out) (successors b.b_term))
        cfg.Cfg.rpo;
      (match !bad with
       | None -> Ok (summarize fe f cfg claimed)
       | Some what -> Error what)

(* --- pretty printing ---------------------------------------------------- *)

let bstr v =
  if v = min_int then "-inf"
  else if v = max_int then "+inf"
  else string_of_int v

let pp_val objs fmt = function
  | Vtop -> Format.pp_print_string fmt "top"
  | Vint (l, h) ->
    if l = h then Format.fprintf fmt "int %d" l
    else Format.fprintf fmt "int [%s,%s]" (bstr l) (bstr h)
  | Vptr { obj; lo; hi } ->
    let desc =
      if obj < Array.length objs then objs.(obj).o_desc
      else Printf.sprintf "obj%d" obj
    in
    Format.fprintf fmt "ptr %s+[%s,%s]" desc (bstr lo) (bstr hi)

let pp_summary fmt (su : summary) =
  Format.fprintf fmt "function %s (%d facts)@." su.su_func (facts su);
  Array.iter
    (fun o ->
       Format.fprintf fmt "  obj %d: %s size %s%s@." o.o_id o.o_desc
         (if o.o_size >= 0 then string_of_int o.o_size else "?")
         (if o.o_escapes then " escapes" else ""))
    su.su_objs;
  Array.iteri
    (fun bid st ->
       match st with
       | None -> ()
       | Some st ->
         if not (all_top st && Int_set.is_empty st.s_freed) then begin
           Format.fprintf fmt "  block %d:@." bid;
           iter_regs
             (fun r v ->
                Format.fprintf fmt "    r%d = %a@." r (pp_val su.su_objs) v)
             st;
           if not (Int_set.is_empty st.s_freed) then
             Format.fprintf fmt "    freed: {%s}@."
               (String.concat ","
                  (List.map string_of_int (Int_set.elements st.s_freed)))
         end)
    su.su_block_in
