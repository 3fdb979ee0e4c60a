(* CECSan compile-time instrumentation (run at "LTO time", i.e. over the
   fully linked module so external functions are known).

   Phases, in order:
     1. downgrade [safe] flags of accesses rooted at unsafe objects
        (their addresses will be tagged, so they must go through checks);
     2. GPT rewrite: accesses to unsafe globals load a tagged pointer
        from the Global Pointer Table (section II.C.3);
     3. stack protection: metadata for unsafe stack slots in prologues,
        released in epilogues;
     4. allocation-family rewrite: malloc/free/calloc/realloc become
        CECSan intrinsics that tag/validate (section II.B);
     5. sub-object narrowing (section II.D);
     6. tag stripping at calls to external, uninstrumented user functions
        (section II.E; libc builtins are handled by interceptors instead);
     7. dereference check insertion (Algorithm 1 call sites);
     8. optimizations (section II.F) -- in Opt.
*)

open Tir.Ir

(* --- intrinsic names ------------------------------------------------------- *)

(* The runtime entry points the pass calls, in one namespace ("__cecsan"
   for CECSan, the PA tools' own for PACMem and CryptSan).  Built once per
   [instrument] call. *)
type names = {
  ns : string;
  gpt_load : string;
  global_make : string;
  stack_make : string;
  stack_release : string;
  sub_make : string;
  sub_release : string;
  extcall_strip : string;
  check_load : string;
  check_store : string;
}

let names ns =
  let n suffix = ns ^ "_" ^ suffix in
  { ns; gpt_load = n "gpt_load"; global_make = n "global_make";
    stack_make = n "stack_make"; stack_release = n "stack_release";
    sub_make = n "sub_make"; sub_release = n "sub_release";
    extcall_strip = n "extcall_strip"; check_load = n "check_load";
    check_store = n "check_store" }

(* --- phase 1: downgrade safety of unsafe-rooted accesses ------------------ *)

let downgrade_safe_flags (md : modul) (f : func) : unit =
  let unsafe_slot = Array.make (List.length f.f_slots) false in
  List.iter (fun s -> unsafe_slot.(s.s_id) <- s.s_unsafe) f.f_slots;
  let unsafe_glob : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun g -> if g.g_unsafe then Hashtbl.replace unsafe_glob g.g_name ())
    md.m_globals;
  Array.iter
    (fun b ->
       let rooted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
       let opnd_rooted = function
         | Reg r -> Hashtbl.mem rooted r
         | Glob g -> Hashtbl.mem unsafe_glob g
         | Imm _ -> false
       in
       b.b_instrs <-
         List.map
           (fun i ->
              let i' =
                match i with
                | Iload ({ addr; safe = true; _ } as l) when opnd_rooted addr
                  -> Iload { l with safe = false }
                | Istore ({ addr; safe = true; _ } as s) when opnd_rooted addr
                  -> Istore { s with safe = false }
                | i -> i
              in
              (match i' with
               | Islot { dst; slot } when unsafe_slot.(slot) ->
                 Hashtbl.replace rooted dst ()
               | Igep { dst; base; _ } when opnd_rooted base ->
                 Hashtbl.replace rooted dst ()
               | _ ->
                 (match defs i' with
                  | Some d -> Hashtbl.remove rooted d
                  | None -> ()));
              i')
           b.b_instrs)
    f.f_blocks

(* --- phase 2: the Global Pointer Table ------------------------------------ *)

let gpt_slots (md : modul) : (string * global * int) list =
  let k = ref (-1) in
  List.filter_map
    (fun g ->
       if g.g_unsafe then begin
         incr k;
         Some (g.g_name, g, !k)
       end
       else None)
    md.m_globals

let rewrite_globals (md : modul) (n : names)
    (slots : (string * global * int) list) (f : func) : unit =
  let slot_of : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (name, _, k) -> Hashtbl.replace slot_of name k) slots;
  let rewrite_block b =
    b.b_instrs <-
      List.concat_map
        (fun i ->
           let prefix = ref [] in
           let fix o =
             match o with
             | Glob g ->
               (match Hashtbl.find_opt slot_of g with
                | Some k ->
                  let r = fresh_reg f in
                  prefix :=
                    Iintrin { dst = Some r; name = n.gpt_load;
                              args = [ Imm k ]; site = fresh_site md }
                    :: !prefix;
                  Reg r
                | None -> o)
             | Reg _ | Imm _ -> o
           in
           (* [fix] pushes onto [prefix]: rewrite before reading it *)
           let i' = map_opnds fix i in
           List.rev (i' :: !prefix))
        b.b_instrs;
    b.b_term <-
      (match b.b_term with
       | Tcbr (Glob g, x, y) when Hashtbl.mem slot_of g ->
         (* a branch on a global's address is always true; keep simple *)
         Tcbr (Imm 1, x, y)
       | t -> t)
  in
  Array.iter rewrite_block f.f_blocks

let insert_gpt_init (md : modul) (n : names)
    (slots : (string * global * int) list) : unit =
  match find_func md "main" with
  | None -> ()
  | Some main ->
    let init =
      List.concat_map
        (fun (name, g, k) ->
           [ Iintrin { dst = None; name = n.global_make;
                       args = [ Glob name; Imm g.g_size; Imm k ];
                       site = fresh_site md } ])
        slots
    in
    Tir.Rewrite.insert_prologue main init

(* --- phase 3: stack protection -------------------------------------------- *)

let protect_stack (md : modul) (n : names) (f : func) : unit =
  let unsafe = List.filter (fun s -> s.s_unsafe) f.f_slots in
  if unsafe <> [] then begin
    let tag_reg : (int, int) Hashtbl.t = Hashtbl.create 4 in
    List.iter (fun s -> Hashtbl.replace tag_reg s.s_id (fresh_reg f)) unsafe;
    (* replace existing slot-address instructions by the tagged pointer *)
    Tir.Rewrite.map_instrs
      (function
        | Islot { dst; slot } when Hashtbl.mem tag_reg slot ->
          [ Imov { dst; src = Reg (Hashtbl.find tag_reg slot) } ]
        | i -> [ i ])
      f;
    let prologue =
      List.concat_map
        (fun s ->
           let a = fresh_reg f in
           [ Islot { dst = a; slot = s.s_id };
             Iintrin { dst = Some (Hashtbl.find tag_reg s.s_id);
                       name = n.stack_make;
                       args = [ Reg a; Imm s.s_size ];
                       site = fresh_site md } ])
        unsafe
    in
    Tir.Rewrite.insert_prologue f prologue;
    Tir.Rewrite.insert_before_rets f (fun () ->
        List.map
          (fun s ->
             Iintrin { dst = None; name = n.stack_release;
                       args = [ Reg (Hashtbl.find tag_reg s.s_id) ];
                       site = fresh_site md })
          unsafe)
  end

(* --- phase 4: allocation family ------------------------------------------- *)

let rewrite_allocs (md : modul) (n : names) (f : func) : unit =
  Tir.Rewrite.map_instrs
    (function
      | Icall { dst; callee; args }
        when Sanitizer.Spec.is_alloc_family callee ->
        [ Iintrin { dst; name = n.ns ^ "_" ^ callee; args;
                    site = fresh_site md } ]
      | i -> [ i ])
    f

(* --- phase 6: external user calls ------------------------------------------ *)

let strip_external_calls (md : modul) (n : names) (f : func) : unit =
  Tir.Rewrite.map_instrs
    (function
      | Icall { dst; callee; args } as i ->
        (match find_func md callee with
         | Some { f_external = true; f_sig_ptrs; _ } ->
           let prefix = ref [] in
           let args' =
             List.mapi
               (fun k a ->
                  let is_ptr =
                    match List.nth_opt f_sig_ptrs k with
                    | Some b -> b
                    | None -> false
                  in
                  if is_ptr then begin
                    let r = fresh_reg f in
                    prefix :=
                      Iintrin { dst = Some r; name = n.extcall_strip;
                                args = [ a ]; site = fresh_site md }
                      :: !prefix;
                    Reg r
                  end
                  else a)
               args
           in
           List.rev !prefix @ [ Icall { dst; callee; args = args' } ]
         | _ -> [ i ])
      | i -> [ i ])
    f

(* --- phase 7: dereference checks ------------------------------------------- *)

let insert_checks (md : modul) (n : names) (cfg : Config.t) (f : func) :
  unit =
  let should_check safe = (not safe) || not cfg.Config.opt_typeinfo in
  Tir.Rewrite.map_instrs
    (function
      | Iload ({ addr; size; safe; _ } as l) when should_check safe ->
        let r = fresh_reg f in
        [ Iintrin { dst = Some r; name = n.check_load;
                    args = [ addr; Imm size ]; site = fresh_site md };
          Iload { l with addr = Reg r } ]
      | Istore ({ addr; size; safe; _ } as s) when should_check safe ->
        let r = fresh_reg f in
        [ Iintrin { dst = Some r; name = n.check_store;
                    args = [ addr; Imm size ]; site = fresh_site md };
          Istore { s with addr = Reg r } ]
      | i -> [ i ])
    f

(* --- driver ----------------------------------------------------------------- *)

(* Check/metadata insertion only; [optimize] is the separate section
   II.F phase so the driver can verify coverage on both sides of it. *)
let instrument ?(config = Config.default) ~ns (md : modul) : unit =
  let n = names ns in
  (* LTO view: safety analyses over the final linked module *)
  Tir.Analysis.run md;
  let slots = if config.Config.protect_globals then gpt_slots md else [] in
  iter_funcs md (fun f ->
      if not f.f_external then begin
        downgrade_safe_flags md f;
        rewrite_globals md n slots f;
        if config.Config.protect_stack then protect_stack md n f;
        rewrite_allocs md n f;
        if config.Config.subobject then
          ignore
            (Subobject.narrow ~make:n.sub_make ~release:n.sub_release md f);
        strip_external_calls md n f;
        insert_checks md n config f
      end);
  insert_gpt_init md n slots

let optimize ?(config = Config.default) (md : modul) : unit =
  let pure = Opt.purity md in
  if config.Config.opt_redundant then
    iter_funcs md (fun f -> if not f.f_external then Opt.redundant ~pure md f);
  if config.Config.opt_loop then
    iter_funcs md (fun f ->
        if not f.f_external then Opt.loops ~pure md config f);
  (* certified elision last: the passes above key on the original check
     names, and every rewrite here leaves a replayable witness *)
  if config.Config.opt_absint then ignore (Opt.absint md)
