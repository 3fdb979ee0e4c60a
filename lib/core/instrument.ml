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
     8. optimizations (section II.F) -- [optimize], which runs
        [Sanitizer.Checkopt] over [Opt.spec].
*)

open Tir.Ir

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

(* --- phase 4: allocation family ------------------------------------------- *)

(* [malloc]/[free]/[calloc]/[realloc] become the intrinsics [ns_malloc]
   and so on; SoftBound+CETS shares this rewrite under ["__sb"]. *)

let rewrite_allocs (md : modul) ~ns (f : func) : unit =
  Tir.Rewrite.map_instrs
    (function
      | Icall { dst; callee; args }
        when Sanitizer.Spec.is_alloc_family callee ->
        [ Iintrin { dst; name = ns ^ "_" ^ callee; args;
                    site = fresh_site md } ]
      | i -> [ i ])
    f

(* --- phase 6: external user calls ------------------------------------------ *)

let strip_external_calls (md : modul) ~strip (f : func) : unit =
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
                      Iintrin { dst = Some r; name = strip;
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

(* --- driver ----------------------------------------------------------------- *)

(* Check/metadata insertion only; [optimize] is the separate section
   II.F phase so the driver can verify coverage on both sides of it.
   Phases 2, 3 and 7 are the shared [Tir.Rewrite] building blocks. *)
let instrument ?(config = Config.default) ~ns (md : modul) : unit =
  (* the namespace's entry points, as [Opt.namespace_spec ns] declares
     them *)
  let n = Opt.entry ns in
  let gpt_load = n "gpt_load" and stack_make = n "stack_make"
  and stack_release = n "stack_release" and sub_make = n "sub_make"
  and sub_release = n "sub_release" and strip = n "extcall_strip"
  and check_load = n "check_load" and check_store = n "check_store" in
  (* LTO view: safety analyses over the final linked module *)
  Tir.Analysis.run md;
  let slots = Tir.Rewrite.global_slots md in
  let checked = if config.Config.opt_typeinfo then not else fun _ -> true in
  iter_funcs md (fun f ->
      if not f.f_external then begin
        downgrade_safe_flags md f;
        Tir.Rewrite.load_globals md ~load:gpt_load slots f;
        Tir.Rewrite.tag_stack md ~make:stack_make ~release:stack_release
          ~release_args:(fun p _ -> [ p ]) f;
        rewrite_allocs md ~ns f;
        if config.Config.subobject then
          ignore (Subobject.narrow ~make:sub_make ~release:sub_release md f);
        strip_external_calls md ~strip f;
        Tir.Rewrite.insert_checks md ~load:check_load ~store:check_store
          ~returns_addr:true ~checked f
      end);
  Tir.Rewrite.make_globals md ~make:(n "global_make") slots

let optimize ?(config = Config.default) (md : modul) : unit =
  let pure = Opt.purity md in
  if config.Config.opt_redundant then
    iter_funcs md (fun f ->
        if not f.f_external then
          ignore (Sanitizer.Checkopt.redundant Opt.spec ~pure f));
  if config.Config.opt_loop then
    iter_funcs md (fun f ->
        if not f.f_external then
          ignore (Sanitizer.Checkopt.loops Opt.spec ~pure md f));
  (* certified elision last: the passes above key on the original check
     names, and every rewrite here leaves a replayable witness *)
  if config.Config.opt_absint then
    ignore (Sanitizer.Checkopt.absint ~pure md Opt.spec)
