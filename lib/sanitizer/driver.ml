(* End-to-end driver: MiniC source -> checked AST -> Tir -> promoted IR
   -> sanitizer instrumentation -> VM run.

   Each sanitizer still gets its own module to mutate (the moral
   equivalent of recompiling with a different -fsanitize= flag), but the
   front end runs once per source: [build] parses/checks/lowers/promotes
   through a compile cache and hands every sanitizer a deep clone
   ([Tir.Ir.clone]) of the pristine module.  The cache is keyed by
   (source, optimize) and guarded by a mutex so parallel harness runs
   (Harness.Pool) share it safely. *)

type run_result = {
  outcome : Vm.Machine.outcome;
  cycles : int;
  resident : int;          (* bytes: all touched pages *)
  program_resident : int;  (* bytes: program-region pages only *)
  output : string;
  heap_allocs : int;
  instrumented_size : int; (* static instruction count after the pass *)
  reports : Vm.Report.t list;  (* sink contents, submission order *)
  suppressed : int;            (* findings deduplicated or over the cap *)
  snapshot : Telemetry.Snapshot.t; (* full telemetry: sites, counters,
                                      gauges, event ring *)
  site_labels : (int * string) list; (* site id -> IR origin, sorted *)
}

(* Parse, check and lower a source file; [optimize] runs the -O2 model
   (slot promotion).  Raises [Minic.Sema.Error] or [Tir.Lower.Error].
   Always runs the front end; callers that can tolerate a shared
   pristine module go through [compile_cached] instead.

   Fuel accounting burns the produced module's size *after* the front
   end ran, which keeps the burn a pure function of the source: a cache
   hit in [compile_cached] burns exactly the same amount, so fuel
   "timeouts" cannot depend on which worker warmed the cache first. *)
let compile ?(optimize = true) ?fuel (src : string) : Tir.Ir.modul =
  let checked = Minic.Sema.parse_and_check src in
  let md = Tir.Lower.lower checked in
  if optimize then ignore (Tir.Promote.run md) else Tir.Analysis.run md;
  Tir.Fuel.burn fuel (Tir.Ir.module_size md);
  md

(* The compile cache, sharded by key hash: one (mutex, table) pair per
   shard, so a server-shaped load -- many domains compiling many small
   distinct sources concurrently -- spreads its lock traffic over
   [shard_count] locks instead of serializing on one.  Pristine modules
   are inserted once and never mutated afterwards; every consumer
   receives a deep clone.  Concurrent readers of an
   immutable-after-insert module are safe, so each lock only covers its
   own table. *)
let shard_count = 16  (* power of two: shard_of masks the key hash *)

type shard = {
  s_lock : Mutex.t;
  s_cache : (bool * string, Tir.Ir.modul) Hashtbl.t;
}

let shards : shard array =
  Array.init shard_count (fun _ ->
      { s_lock = Mutex.create (); s_cache = Hashtbl.create 64 })

(* Safety valve per shard for pathological workloads (the harness
   compiles a few thousand distinct sources at most). *)
let shard_capacity = 2_048

let shard_of key = shards.(Hashtbl.hash key land (shard_count - 1))

let clear_compile_cache () =
  Array.iter
    (fun sh ->
       Mutex.lock sh.s_lock;
       Hashtbl.reset sh.s_cache;
       Mutex.unlock sh.s_lock)
    shards

let compile_cached ~optimize ?fuel (src : string) : Tir.Ir.modul =
  let key = (optimize, src) in
  let sh = shard_of key in
  let cached =
    Mutex.lock sh.s_lock;
    let r = Hashtbl.find_opt sh.s_cache key in
    Mutex.unlock sh.s_lock;
    r
  in
  let pristine =
    match cached with
    | Some md ->
      (* burn what [compile] would have burned: fuel exhaustion must be
         cache-state independent or "timeouts" would differ across -j
         and across resume boundaries *)
      Tir.Fuel.burn fuel (Tir.Ir.module_size md);
      md
    | None ->
      (* compiled outside the lock: front-end errors must propagate to
         this caller, and compilation is deterministic so a racing
         duplicate insert is harmless (last write wins, same value) *)
      let md = compile ~optimize ?fuel src in
      Mutex.lock sh.s_lock;
      if Hashtbl.length sh.s_cache >= shard_capacity then
        Hashtbl.reset sh.s_cache;
      Hashtbl.replace sh.s_cache key md;
      Mutex.unlock sh.s_lock;
      md
  in
  Tir.Ir.clone pristine

(* --- the static verification gate ----------------------------------------- *)

exception
  Verifier_reject of { tool : string; stage : string; errors : string list }

let () =
  Printexc.register_printer (function
      | Verifier_reject { tool; stage; errors } ->
        Some
          (Printf.sprintf "Verifier_reject(%s, %s): %s" tool stage
             (String.concat "; " errors))
      | _ -> None)

(* Instrument, then optimize, with [Tir.Verify] run on both sides and the
   covered-obligation count required non-shrinking across the
   optimization (translation validation of the section II.F passes).
   Returns the two reports the gate accepted. *)
let instrument_verified ?fuel (san : Spec.t) (md : Tir.Ir.modul) :
  Tir.Verify.report * Tir.Verify.report =
  let gate stage = function
    | [] -> ()
    | errors ->
      raise (Verifier_reject { tool = san.Spec.name; stage; errors })
  in
  let spec = san.Spec.verify in
  san.Spec.instrument md;
  Tir.Fuel.burn fuel (Tir.Ir.module_size md);
  let pre = Tir.Verify.check ?spec ?fuel md in
  gate "preopt" (List.map Tir.Verify.error_to_string pre.Tir.Verify.r_errors);
  san.Spec.optimize md;
  let post = Tir.Verify.check ?spec ?fuel md in
  gate "postopt"
    (List.map Tir.Verify.error_to_string post.Tir.Verify.r_errors);
  if post.Tir.Verify.r_covered < pre.Tir.Verify.r_covered then
    gate "postopt"
      [ Printf.sprintf
          "coverage shrank across optimization: %d covered before, %d after"
          pre.Tir.Verify.r_covered post.Tir.Verify.r_covered ];
  (pre, post)

(* Compiles under a sanitizer.  May raise [Spec.Unsupported] or
   [Verifier_reject]; with [fuel] given, [Tir.Fuel.Exhausted]. *)
let build (san : Spec.t) ?(optimize = true) ?fuel (src : string)
  : Tir.Ir.modul =
  let md = compile_cached ~optimize ?fuel src in
  ignore (instrument_verified ?fuel san md);
  md

(* Multi-translation-unit build: compiles each unit, links them
   (LTO model), then instruments the whole program.  Units flagged
   [`Uninstrumented] model precompiled legacy libraries: their code runs
   but the sanitizer leaves it alone, and calls into it get the
   boundary treatment of paper section II.E. *)
let build_link (san : Spec.t) ?(optimize = true)
    (units : (string * [ `Instrumented | `Uninstrumented ]) list) :
  Tir.Ir.modul =
  match units with
  | [] -> invalid_arg "build_link: no units"
  | (first_src, first_kind) :: rest ->
    let primary = compile_cached ~optimize first_src in
    (match first_kind with
     | `Instrumented -> ()
     | `Uninstrumented -> invalid_arg "build_link: main unit must be instrumented");
    List.iteri
      (fun k (src, kind) ->
         let md = compile_cached ~optimize src in
         Tir.Link.merge
           ~mark_external:(match kind with
               | `Uninstrumented -> true
               | `Instrumented -> false)
           ~pos:(k + 1) ~primary md)
      rest;
    ignore (instrument_verified san primary);
    primary

(* Runs an instrumented module.  [lines]/[packets] feed the dummy input
   server; [budget] bounds the run in cycles.  [policy] (default [Halt])
   is what a finding does; [fault] threads a fault injector
   into the run.  [backend] (default [Interp]) selects the interpreter
   or the threaded-code jit; [fuel] meters jit compilation. *)
let run_module (san : Spec.t) ?(lines = []) ?(packets = []) ?(externs = [])
    ?(budget = Vm.State.default_budget) ?(seed = 0x5EED) ?policy ?fault
    ?(backend = Vm.Machine.Interp) ?fuel (md : Tir.Ir.modul) : run_result =
  let st = Vm.State.create ~cycle_budget:budget ~seed ?policy ?fault () in
  List.iter (Vm.Input.provide_line st.Vm.State.input) lines;
  List.iter (Vm.Input.provide_packet st.Vm.State.input) packets;
  let rt = san.Spec.fresh_runtime () in
  let m = Vm.Machine.create ~st ~rt md in
  List.iter (fun (name, fn) -> Vm.Machine.register_extern m name fn) externs;
  let outcome = Vm.Machine.run ~backend ?fuel m in
  let fl = st.Vm.State.fault in
  if fl.Vm.Fault.oom_injected > 0 then
    Vm.State.set_stat st "injected_oom" fl.Vm.Fault.oom_injected;
  if fl.Vm.Fault.tagflips_injected > 0 then
    Vm.State.set_stat st "injected_tagflips" fl.Vm.Fault.tagflips_injected;
  (* allocator gauges are plain fields (no hot-path telemetry calls);
     publish them into the snapshot here, after the run *)
  let al = st.Vm.State.alloc in
  Vm.State.set_stat st "alloc_peak_live" al.Vm.Alloc.peak_live;
  Vm.State.set_stat st "alloc_recycles" al.Vm.Alloc.recycles;
  Vm.State.set_stat st "alloc_live_exit" al.Vm.Alloc.live;
  let snapshot = Telemetry.Snapshot.capture st.Vm.State.telem in
  {
    outcome;
    cycles = st.Vm.State.cycles;
    resident = Vm.Memory.resident_bytes st.Vm.State.mem;
    program_resident = Vm.Memory.program_bytes st.Vm.State.mem;
    output = Buffer.contents st.Vm.State.output;
    heap_allocs = st.Vm.State.heap_allocs;
    instrumented_size = Tir.Ir.module_size md;
    reports = Vm.Report.sink_reports st.Vm.State.sink;
    suppressed = Vm.Report.sink_suppressed st.Vm.State.sink;
    snapshot;
    site_labels = Tir.Ir.site_origins md;
  }

(* A [Fault.Fuel n] injection bridged into pipeline fuel: the injector
   carries the budget so the CLI/campaign fault surface ("fuel:N")
   reaches compile and verify without a second plumbing path.  An
   explicit [fuel] wins. *)
let pipeline_fuel ?fuel (fault : Vm.Fault.t option) : Tir.Fuel.t option =
  match fuel, fault with
  | (Some _ as f), _ | f, None -> f
  | None, Some fl ->
    Option.map
      (fun budget -> Tir.Fuel.make ~phase:"compile" ~budget)
      fl.Vm.Fault.fuel_budget

let run (san : Spec.t) ?lines ?packets ?externs ?budget ?seed ?policy ?fault
    ?fuel ?backend ?(optimize = true) (src : string) : run_result =
  let fuel = pipeline_fuel ?fuel fault in
  run_module san ?lines ?packets ?externs ?budget ?seed ?policy ?fault
    ?backend ?fuel
    (build san ~optimize ?fuel src)
