(* The traced pipeline: MiniC text to verdict, re-composed from the
   public functions of each layer so that every layer boundary gets a
   span.  It mirrors [Sanitizer.Driver.run] step for step (front end
   through the compile cache, the Strict verification gate around
   instrument/optimize, run) and additionally records what the ledger
   needs: IR sizes after each stage, static check counts and the run's
   check counters.

   Untraced runs call [Sanitizer.Driver.run] (or the workload's own
   public entry point) directly; nothing here is on their path. *)

(* One program run: a source plus everything [Driver.run] takes. *)
type job = {
  src : string;
  optimize : bool;
  backend : Vm.Machine.backend option;
  lines : string list;
  packets : string list;
  externs : (string * (Vm.State.t -> int array -> int)) list;
  budget : int;
}

let job ?(optimize = true) ?backend ?(lines = []) ?(packets = [])
    ?(externs = []) ?(budget = Vm.State.default_budget) src =
  { src; optimize; backend; lines; packets; externs; budget }

let run_plain (san : Sanitizer.Spec.t) (j : job) : Sanitizer.Driver.run_result
  =
  Sanitizer.Driver.run san ~lines:j.lines ~packets:j.packets
    ~externs:j.externs ~budget:j.budget ?backend:j.backend
    ~optimize:j.optimize j.src

let run_module (san : Sanitizer.Spec.t) (j : job) md =
  Sanitizer.Driver.run_module san ~lines:j.lines ~packets:j.packets
    ~externs:j.externs ~budget:j.budget ?backend:j.backend md

(* --- deterministic per-build facts ------------------------------------------ *)

type facts = {
  mutable builds : int;
  mutable size_promoted : int;
  mutable size_instrumented : int;
  mutable size_optimized : int;
  mutable static_checks : int;   (* check sites left after optimize *)
  mutable downgraded : int;      (* of which spatial-only *)
  mutable elided : int;          (* dynamic: check executions elided *)
  mutable executed : int;        (* dynamic: check executions *)
  mutable frontend_hits : int;
  mutable resolutions : int;
  mutable jit_compiles : int;
}

let no_facts () =
  { builds = 0; size_promoted = 0; size_instrumented = 0; size_optimized = 0;
    static_checks = 0; downgraded = 0; elided = 0; executed = 0;
    frontend_hits = 0; resolutions = 0; jit_compiles = 0 }

(* The run's facts, summed over its traced builds. *)
let facts = ref (no_facts ())

(* (check sites, spatial-only check sites) of a tool's optimized module *)
let count_checks (san : Sanitizer.Spec.t) md =
  match san.Sanitizer.Spec.verify with
  | None -> (0, 0)
  | Some spec ->
    let is_check name =
      List.exists
        (fun base ->
           String.equal name base || String.equal name (base ^ "_spatial"))
        [ spec.Tir.Verify.check_load; spec.Tir.Verify.check_store ]
    in
    let all = ref 0 and spatial = ref 0 in
    Tir.Ir.iter_funcs md (fun f ->
        Array.iter
          (fun (b : Tir.Ir.block) ->
             List.iter
               (function
                 | Tir.Ir.Iintrin { name; _ } when is_check name ->
                   incr all;
                   if String.ends_with ~suffix:"_spatial" name then incr spatial
                 | _ -> ())
               b.Tir.Ir.b_instrs)
          f.Tir.Ir.f_blocks);
    (!all, !spatial)

(* --- the front end and the Driver's compile cache --------------------------- *)

(* Which (optimize, source) pairs the Driver's compile cache holds.  A
   first sight runs the front-end stages one by one, so each gets its
   own span; a repeat goes through [Driver.compile_cached], which then
   hits.  [warm] fills the Driver's cache after the sample, outside its
   spans, so a repeat really is a hit. *)
let seen : (bool * string, unit) Hashtbl.t = Hashtbl.create 64

let clear_compile_cache () =
  Sanitizer.Driver.clear_compile_cache ();
  Hashtbl.reset seen

let warm (j : job) =
  let key = (j.optimize, j.src) in
  if not (Hashtbl.mem seen key) then begin
    Span.record "warm_cache" (fun () ->
        ignore (Sanitizer.Driver.compile_cached ~optimize:j.optimize j.src));
    Hashtbl.replace seen key ()
  end

let frontend (j : job) : Tir.Ir.modul =
  if Hashtbl.mem seen (j.optimize, j.src) then begin
    !facts.frontend_hits <- !facts.frontend_hits + 1;
    Span.record "frontend_hit" (fun () ->
        Sanitizer.Driver.compile_cached ~optimize:j.optimize j.src)
  end
  else begin
    let checked =
      Span.record "parse_sema" (fun () -> Minic.Sema.parse_and_check j.src)
    in
    let md = Span.record "lower" (fun () -> Tir.Lower.lower checked) in
    Span.record "promote" (fun () ->
        if j.optimize then ignore (Tir.Promote.run md)
        else Tir.Analysis.run md);
    md
  end

(* --- instrument + the Strict verification gate ----------------------------- *)

let gate (san : Sanitizer.Spec.t) stage (r : Tir.Verify.report) =
  match r.Tir.Verify.r_errors with
  | [] -> ()
  | errs ->
    raise
      (Sanitizer.Driver.Verifier_reject
         { tool = san.Sanitizer.Spec.name; stage;
           errors = List.map Tir.Verify.error_to_string errs })

(* The ledger's own bookkeeping (IR walks, counter sums) runs in
   [facts] spans, so it is not mistaken for a gap between stages. *)
let bookkeeping f = Span.record "facts" f

let build (san : Sanitizer.Spec.t) (j : job) : Tir.Ir.modul =
  let md = frontend j in
  let promoted = bookkeeping (fun () -> Tir.Ir.module_size md) in
  Span.record "instrument" (fun () -> san.Sanitizer.Spec.instrument md);
  let instrumented = bookkeeping (fun () -> Tir.Ir.module_size md) in
  let spec = san.Sanitizer.Spec.verify in
  let pre = Span.record "verify_pre" (fun () -> Tir.Verify.check ?spec md) in
  gate san "preopt" pre;
  Span.record "optimize" (fun () -> san.Sanitizer.Spec.optimize md);
  let post = Span.record "verify_post" (fun () -> Tir.Verify.check ?spec md) in
  gate san "postopt" post;
  if post.Tir.Verify.r_covered < pre.Tir.Verify.r_covered then
    raise
      (Sanitizer.Driver.Verifier_reject
         { tool = san.Sanitizer.Spec.name; stage = "postopt";
           errors = [ "coverage shrank across optimization" ] });
  bookkeeping (fun () ->
      let f = !facts in
      let checks, spatial = count_checks san md in
      f.builds <- f.builds + 1;
      f.size_promoted <- f.size_promoted + promoted;
      f.size_instrumented <- f.size_instrumented + instrumented;
      f.size_optimized <- f.size_optimized + Tir.Ir.module_size md;
      f.static_checks <- f.static_checks + checks;
      f.downgraded <- f.downgraded + spatial);
  md

(* Resolution and jit compilation run ahead of [run_module] so each gets
   a span; [run_module] then finds both in the module's caches. *)
let execute (san : Sanitizer.Spec.t) (j : job) md : Sanitizer.Driver.run_result
  =
  let r0 = !Vm.Vcode.resolutions and c0 = !Vm.Jit.compilations in
  let vc = Span.record "resolve" (fun () -> Vm.Vcode.resolve_cached md) in
  (match j.backend with
   | Some Vm.Machine.Jit ->
     Span.record "jit_compile" (fun () -> ignore (Vm.Jit.compile_cached vc))
   | Some Vm.Machine.Interp | None -> ());
  let r = Span.record "execute" (fun () -> run_module san j md) in
  bookkeeping (fun () ->
      let f = !facts in
      f.resolutions <- f.resolutions + !Vm.Vcode.resolutions - r0;
      f.jit_compiles <- f.jit_compiles + !Vm.Jit.compilations - c0;
      List.iter
        (fun (row : Telemetry.Snapshot.site_row) ->
           f.executed <- f.executed + row.Telemetry.Snapshot.s_executed;
           f.elided <- f.elided + row.Telemetry.Snapshot.s_elided)
        r.Sanitizer.Driver.snapshot.Telemetry.Snapshot.sites);
  r

(* [Driver.run], traced.  Returns the built module too, for the
   execution split. *)
let run_traced (san : Sanitizer.Spec.t) (j : job) :
  Sanitizer.Driver.run_result * Tir.Ir.modul =
  let md = build san j in
  (execute san j md, md)

(* --- the execution split ---------------------------------------------------- *)

(* A variant of [san] whose check intrinsics are stubs: each ticks the
   same cycles the real check charges and returns what the real check
   returns on a valid access.  On a run where no check fails, the stub
   run's cycles and exit code equal the real run's, so the wall-clock
   difference between the two is the time spent inside check bodies. *)
let stubbed (san : Sanitizer.Spec.t) ~(checks : (string * int) list)
    ~(result : int array -> int) : Sanitizer.Spec.t =
  { san with
    Sanitizer.Spec.name = san.Sanitizer.Spec.name ^ "-stub";
    fresh_runtime =
      (fun () ->
         let rt = san.Sanitizer.Spec.fresh_runtime () in
         List.iter
           (fun (name, cost) ->
              Vm.Runtime.register rt name (fun st a ->
                  Vm.State.tick st cost;
                  result a))
           checks;
         rt) }

let cecsan = Cecsan.sanitizer ()
let asan = Baselines.Asan.sanitizer ()

(* Algorithm 1 returns the stripped address; ASan's shadow check
   returns 0 and charges 8 cycles (lib/baselines/asan.ml). *)
let cecsan_stub =
  stubbed cecsan
    ~checks:
      [ ("__cecsan_check_load", Cecsan.Costs.check);
        ("__cecsan_check_store", Cecsan.Costs.check);
        ("__cecsan_check_load_spatial", Cecsan.Costs.check_spatial);
        ("__cecsan_check_store_spatial", Cecsan.Costs.check_spatial) ]
    ~result:(fun a -> Vm.Layout46.strip a.(0))

let asan_stub =
  stubbed asan
    ~checks:[ ("__asan_check_load", 8); ("__asan_check_store", 8) ]
    ~result:(fun _ -> 0)

type split = {
  none_ns : int;
  stub_ns : int;
  full_ns : int;
  none_cycles : int;
  full_cycles : int;
  none_resident : int;
  full_resident : int;
  asan : (int * int) option;  (* (full_ns, stub_ns) when ASan ran clean *)
}

let finding_free (r : Sanitizer.Driver.run_result) =
  r.Sanitizer.Driver.reports = []
  && (match r.Sanitizer.Driver.outcome with
      | Vm.Machine.Exit _ -> true
      | _ -> false)

let timed f =
  let t0 = Span.now_ns () in
  let r = f () in
  (r, Span.now_ns () - t0)

exception Stub_mismatch of string

(* Every split of the run, newest first. *)
let splits : split list ref = ref []

(* Runs each variant twice, in A B C C B A order, so that warm-up and
   drift fall on every variant alike, and keeps each one's faster run. *)
let abba (variants : (string * (unit -> Sanitizer.Driver.run_result)) list) =
  let best = Hashtbl.create 4 in
  List.iter
    (fun (name, f) ->
       let r, ns = timed (fun () -> Span.record ("split." ^ name) f) in
       match Hashtbl.find_opt best name with
       | Some (_, fastest) when fastest <= ns -> ()
       | _ -> Hashtbl.replace best name (r, ns))
    (variants @ List.rev variants);
  Hashtbl.find best

let same_run what (full : Sanitizer.Driver.run_result)
    (stub : Sanitizer.Driver.run_result) =
  if full.Sanitizer.Driver.cycles <> stub.Sanitizer.Driver.cycles
  || full.Sanitizer.Driver.outcome <> stub.Sanitizer.Driver.outcome
  then
    raise
      (Stub_mismatch
         (Printf.sprintf "%s: stub %d cycles, full %d cycles" what
            stub.Sanitizer.Driver.cycles full.Sanitizer.Driver.cycles))

(* Runs one CECSan program three ways -- uninstrumented, stubbed checks,
   real checks -- plus ASan full and stubbed as the control, on the
   job's backend.  [md] is the CECSan module the sample already built
   and ran.  Raises [Stub_mismatch] when a stub run's cycles or outcome
   differ from the real run's. *)
let split (j : job) (md : Tir.Ir.modul) : unit =
  Span.record "split" (fun () ->
      let none_md =
        Sanitizer.Driver.build Sanitizer.Spec.none ~optimize:j.optimize j.src
      in
      let cec =
        abba
          [ ("none", fun () -> run_module Sanitizer.Spec.none j none_md);
            ("stub", fun () -> run_module cecsan_stub j md);
            ("full", fun () -> run_module cecsan j md) ]
      in
      let (none, none_ns), (stub, stub_ns), (full, full_ns) =
        (cec "none", cec "stub", cec "full")
      in
      same_run "CECSan" full stub;
      let asan_times =
        match Sanitizer.Driver.build asan ~optimize:j.optimize j.src with
        | exception Sanitizer.Spec.Unsupported _ -> None
        | asan_md when not (finding_free (run_module asan j asan_md)) -> None
        | asan_md ->
          let a =
            abba
              [ ("asan_full", fun () -> run_module asan j asan_md);
                ("asan_stub", fun () -> run_module asan_stub j asan_md) ]
          in
          let (afull, afull_ns), (astub, astub_ns) =
            (a "asan_full", a "asan_stub")
          in
          same_run "ASan" afull astub;
          Some (afull_ns, astub_ns)
      in
      splits :=
        { none_ns; stub_ns; full_ns;
          none_cycles = none.Sanitizer.Driver.cycles;
          full_cycles = full.Sanitizer.Driver.cycles;
          none_resident = none.Sanitizer.Driver.resident;
          full_resident = full.Sanitizer.Driver.resident;
          asan = asan_times }
        :: !splits)
