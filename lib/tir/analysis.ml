(* Static analyses over Tir shared by the optimizer and the sanitizers:

   - slot safety: which stack slots need sanitizer protection (the paper:
     "the distinction between safe and unsafe objects on the stack is
     based on whether their addresses are taken or their accesses can be
     statically guaranteed to be in-bounds");
   - global safety: the same classification for globals;
   - register use maps (which blocks use a register), needed by the
     sub-object narrowing to prove a field pointer does not escape;
   - the intrinsic role table: one record per sanitizer, read by the
     check optimizer, the verifier and the abstract interpreter. *)

open Ir

module Int_set = Set.Make (Int)

(* A slot is SAFE when every [Islot] result is consumed only by
   - a direct full-width load/store of the slot (scalar access), or
   - a statically in-bounds gep whose result is itself only loaded/stored.
   Anything else (escaping into a call, being stored as a value, variable
   indexing, pointer arithmetic) makes it unsafe. *)
let compute_slot_safety (f : func) : unit =
  let unsafe = Array.make (List.length f.f_slots) false in
  let mark_unsafe s = unsafe.(s) <- true in
  Array.iter
    (fun b ->
       (* map reg -> slot id for Islot results, and reg -> (slot, static
          in-bounds) for geps rooted at a slot, within this block;
          conservative across blocks: any register that reaches a block
          boundary while rooted at a slot marks the slot unsafe. *)
       let slot_of : (int, int) Hashtbl.t = Hashtbl.create 8 in
       let live_at_end : (int, int) Hashtbl.t = Hashtbl.create 8 in
       let consume r = Hashtbl.remove live_at_end r in
       List.iter
         (fun i ->
            (* any use of a rooted register in a non-load/store position
               marks the slot unsafe *)
            let handle_generic_uses () =
              List.iter
                (fun r ->
                   match Hashtbl.find_opt slot_of r with
                   | Some s -> mark_unsafe s; consume r
                   | None -> ())
                (uses i)
            in
            (match i with
             | Islot { dst; slot } ->
               Hashtbl.replace slot_of dst slot;
               Hashtbl.replace live_at_end dst slot
             | Iload { addr = Reg r; _ } when Hashtbl.mem slot_of r ->
               consume r
             | Istore { addr = Reg r; src; _ } ->
               (* the address position is fine; the value position is an
                  escape *)
               (match src with
                | Reg rs ->
                  (match Hashtbl.find_opt slot_of rs with
                   | Some s -> mark_unsafe s; consume rs
                   | None -> ())
                | Imm _ | Glob _ -> ());
               if Hashtbl.mem slot_of r then consume r
             | Igep { dst; base = Reg r; idx; info } when Hashtbl.mem slot_of r
               ->
               let s = Hashtbl.find slot_of r in
               let in_bounds =
                 match info, idx with
                 | Gfield _, _ -> true
                 | Gindex { elem_size; count = Some n }, Some (Imm k) ->
                   k >= 0 && k < n && elem_size > 0
                 | Gindex _, _ -> false
               in
               if in_bounds then begin
                 (* result remains rooted at the same slot *)
                 Hashtbl.replace slot_of dst s;
                 Hashtbl.replace live_at_end dst s
               end
               else mark_unsafe s;
               consume r
             | _ ->
               handle_generic_uses ());
            (* a redefinition of a rooted register kills the rooting *)
            (match defs i with
             | Some d when (match i with Islot _ -> false
                                       | Igep { base = Reg r; _ } ->
                                         not (Hashtbl.mem slot_of r)
                                       | _ -> true) ->
               Hashtbl.remove slot_of d;
               Hashtbl.remove live_at_end d
             | _ -> ()))
         b.b_instrs;
       (* rooted registers used by the terminator escape *)
       List.iter
         (fun r ->
            match Hashtbl.find_opt slot_of r with
            | Some s -> mark_unsafe s
            | None -> ())
         (term_uses b.b_term);
       (* registers still rooted at the end of the block may flow to other
          blocks: conservatively unsafe if actually used elsewhere *)
       Hashtbl.iter
         (fun r s ->
            let used_elsewhere = ref false in
            Array.iter
              (fun b' ->
                 if b'.b_id <> b.b_id then begin
                   List.iter
                     (fun i -> if List.mem r (uses i) then used_elsewhere := true)
                     b'.b_instrs;
                   if List.mem r (term_uses b'.b_term) then
                     used_elsewhere := true
                 end)
              f.f_blocks;
            if !used_elsewhere then mark_unsafe s)
         live_at_end)
    f.f_blocks;
  List.iter (fun s -> s.s_unsafe <- unsafe.(s.s_id)) f.f_slots

(* A global is UNSAFE when it is an array/struct, or when its address is
   used in any position other than a direct scalar load/store. *)
let compute_global_safety (m : modul) : unit =
  let unsafe : (string, unit) Hashtbl.t = Hashtbl.create 17 in
  List.iter
    (fun g ->
       match g.g_ty with
       | Minic.Ast.Tarr _ | Tstruct _ -> Hashtbl.replace unsafe g.g_name ()
       | _ -> ())
    m.m_globals;
  iter_funcs m (fun f ->
      Array.iter
        (fun b ->
           List.iter
             (fun i ->
                let mark o =
                  match o with
                  | Glob name -> Hashtbl.replace unsafe name ()
                  | Reg _ | Imm _ -> ()
                in
                match i with
                | Iload { addr = Glob _; _ } -> ()
                | Istore { addr = Glob _; src; _ } -> mark src
                | Iload _ -> ()
                | Istore { src; _ } -> mark src
                | Imov { src; _ } -> mark src
                | Ibin { a; b = b'; _ } | Icmp { a; b = b'; _ } ->
                  mark a; mark b'
                | Isext { src; _ } -> mark src
                | Islot _ -> ()
                | Igep { base; idx; _ } ->
                  mark base;
                  Option.iter mark idx
                | Icall { args; _ } | Iintrin { args; _ } ->
                  List.iter mark args)
             b.b_instrs)
        f.f_blocks);
  List.iter
    (fun g -> g.g_unsafe <- Hashtbl.mem unsafe g.g_name)
    m.m_globals

(* Blocks (by id) in which register [r] appears as a use, over the whole
   function. *)
let blocks_using (f : func) : (int, Int_set.t) Hashtbl.t =
  let map : (int, Int_set.t) Hashtbl.t = Hashtbl.create 64 in
  let add r b =
    let s = Option.value (Hashtbl.find_opt map r) ~default:Int_set.empty in
    Hashtbl.replace map r (Int_set.add b s)
  in
  Array.iter
    (fun b ->
       List.iter (fun i -> List.iter (fun r -> add r b.b_id) (uses i))
         b.b_instrs;
       List.iter (fun r -> add r b.b_id) (term_uses b.b_term))
    f.f_blocks;
  map

(* --- interprocedural metadata purity ------------------------------------ *)

(* Builtins that cannot touch sanitizer metadata: they neither allocate
   nor free, and only read the memory their pointer arguments describe.
   A call to one of these leaves every tag-check fact intact -- the
   checked registers, the metadata table and any shadow state are
   exactly as before the call. *)
let metadata_neutral_builtins =
  [ "printf"; "puts"; "putchar"; "getchar"; "strlen"; "strcmp"; "strncmp";
    "memcmp"; "wcslen"; "wcscmp"; "abs"; "atoi"; "rand"; "srand" ]

(* --- intrinsic roles -------------------------------------------------- *)

type size_rule = Sarg of int | Sprod of int * int

type role =
  | Alloc of size_rule | Realloc of size_rule | Free | Make | Strip
  | Gpt_load | Global_make | Opaque | Neutral

type meaning =
  | Check of bool | Spatial of bool | Role of role | Marker | Undeclared

type roles = {
  declared : (string * role) list;
  table : (string, meaning) Hashtbl.t;
}

let roles declared =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, r) ->
       if Hashtbl.mem table name then
         invalid_arg ("Analysis.roles: two roles for " ^ name);
       Hashtbl.replace table name (Role r))
    declared;
  { declared; table }

type spec = {
  check_load : string;
  check_store : string;
  spatial : bool;
  intrinsics : roles;
  calls : roles;
  produces_addr : bool;
  strip_mask : int;
  may_hoist_stores : bool;
  slots : bool;
  certified : bool;
}

(* [name] is [check ^ "_spatial"] *)
let spatial_of check name =
  String.length name = String.length check + 8
  && String.starts_with ~prefix:check name
  && String.ends_with ~suffix:"_spatial" name

let meaning (spec : spec) name =
  if String.equal name spec.check_load then Check false
  else if String.equal name spec.check_store then Check true
  else
    match Hashtbl.find spec.intrinsics.table name with
    | m -> m
    | exception Not_found ->
      if spec.spatial && spatial_of spec.check_load name then Spatial false
      else if spec.spatial && spatial_of spec.check_store name then
        Spatial true
      else if is_telemetry_marker name then Marker
      else Undeclared

let is_hazard = function
  | Check _ | Spatial _ | Role (Strip | Gpt_load | Neutral) | Marker -> false
  | Role (Alloc _ | Realloc _ | Free | Make | Global_make | Opaque)
  | Undeclared ->
    true

(* [pure_callees m spec] memoizes, for every callee name, whether
   a call to it can disturb sanitizer metadata.  A function is pure when
   its body (transitively) contains no hazard intrinsic and calls only
   pure things; an undefined callee is pure only when it is a
   metadata-neutral builtin (the allocator family in particular is
   not); external stubs and recursive cycles are conservatively impure.
   Both Checkopt (keeping straight-line facts live across calls) and
   Verify (accepting exactly those facts) use this same closure, so the
   optimizer cannot out-reason its certifier. *)
let pure_callees (m : modul) (spec : spec) : string -> bool =
  let memo : (string, bool) Hashtbl.t = Hashtbl.create 17 in
  let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 7 in
  let rec pure name =
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None ->
      if Hashtbl.mem in_progress name then false
      else begin
        let v =
          match Hashtbl.find_opt m.m_funcs name with
          | None -> List.mem name metadata_neutral_builtins
          | Some f when f.f_external -> false
          | Some f ->
            Hashtbl.replace in_progress name ();
            let ok = ref true in
            Array.iter
              (fun b ->
                 List.iter
                   (fun i ->
                      match i with
                      | Iintrin { name = n; _ } ->
                        if is_hazard (meaning spec n) then ok := false
                      | Icall { callee; _ } ->
                        if not (pure callee) then ok := false
                      | _ -> ())
                   b.b_instrs)
              f.f_blocks;
            Hashtbl.remove in_progress name;
            !ok
        in
        Hashtbl.replace memo name v;
        v
      end
  in
  pure

let run (m : modul) : unit =
  iter_funcs m (fun f -> if not f.f_external then compute_slot_safety f);
  compute_global_safety m
