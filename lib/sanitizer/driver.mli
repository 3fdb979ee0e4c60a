(** End-to-end driver: MiniC source -> checked AST -> Tir -> promoted IR
    -> sanitizer instrumentation -> VM run. *)

type run_result = {
  outcome : Vm.Machine.outcome;
  cycles : int;            (** deterministic cost-model cycles *)
  resident : int;          (** bytes: all touched pages *)
  program_resident : int;  (** bytes: program-region pages only *)
  output : string;         (** captured stdout *)
  heap_allocs : int;
  instrumented_size : int; (** static instruction count after the pass *)
  reports : Vm.Report.t list;
      (** findings recorded by a [Recover] sink, in submission order;
          empty under [Halt] (the finding is in [outcome]) *)
  suppressed : int;        (** findings deduplicated or over the cap *)
  telemetry : (string * int) list;
      (** runtime gauges (metadata-table degradation, injected faults),
          sorted by key — [snapshot.gauges], kept for callers that only
          want the counters *)
  snapshot : Telemetry.Snapshot.t;
      (** the run's full telemetry: per-check-site counters, named
          counters/gauges, the bounded event ring *)
  site_labels : (int * string) list;
      (** site id -> IR origin ("func.bN\[i\] intrinsic"), sorted — the
          labels behind the [--profile] hot-site report *)
}

val compile : ?optimize:bool -> ?fuel:Tir.Fuel.t -> string -> Tir.Ir.modul
(** Parse, check, lower; [optimize] (default true) runs the -O2 model
    (slot promotion).  Raises [Minic.Sema.Error] or [Tir.Lower.Error].
    Always runs the front end (no caching).  [fuel] burns the produced
    module's size (may raise [Tir.Fuel.Exhausted]). *)

val compile_cached : optimize:bool -> ?fuel:Tir.Fuel.t -> string -> Tir.Ir.modul
(** Like [compile], but parse/check/lower/promote run once per
    (source, optimize) pair; the result is a deep clone ([Tir.Ir.clone])
    of the cached pristine module, safe to mutate.  Thread-safe: the
    cache is shared across Harness.Pool workers.  Fuel burn is
    cache-state independent: a hit burns exactly what the miss would
    have. *)

val clear_compile_cache : unit -> unit
(** Drops every cached module (tests, memory pressure). *)

exception
  Verifier_reject of { tool : string; stage : string; errors : string list }
(** Raised by the [Tir.Verify] gate that [build]/[build_link] run
    around every sanitizer's instrument/optimize phases.  [stage] is
    ["preopt"] or ["postopt"]; [errors] are rendered [Tir.Verify.error]s
    (plus the coverage-shrink violation, if any). *)

val instrument_verified : ?fuel:Tir.Fuel.t -> Spec.t -> Tir.Ir.modul -> unit
(** The gate itself: instrument, verify, optimize, verify again, and
    require the covered-obligation count non-shrinking across the
    optimization.  Exposed for tools (CLI [--verify], bench) that need
    the phases on a module they built themselves.  [fuel] bounds the
    verifier dataflow fixpoints. *)

val build : Spec.t -> ?optimize:bool -> ?fuel:Tir.Fuel.t -> string -> Tir.Ir.modul
(** [compile_cached], then instrument + optimize under the verification
    gate.  May raise [Spec.Unsupported], [Verifier_reject] or
    [Tir.Fuel.Exhausted]. *)

val build_link :
  Spec.t ->
  ?optimize:bool ->
  (string * [ `Instrumented | `Uninstrumented ]) list ->
  Tir.Ir.modul
(** Multi-translation-unit build: compile each unit, link (LTO model),
    then instrument the whole program.  [`Uninstrumented] units model
    precompiled legacy libraries (paper section II.E). *)

val run_module :
  Spec.t ->
  ?lines:string list ->
  ?packets:string list ->
  ?externs:(string * (Vm.State.t -> int array -> int)) list ->
  ?budget:int ->
  ?seed:int ->
  ?policy:Vm.Report.policy ->
  ?fault:Vm.Fault.t ->
  ?backend:Vm.Machine.backend ->
  ?fuel:Tir.Fuel.t ->
  Tir.Ir.modul ->
  run_result
(** Runs an instrumented module.  [lines]/[packets] feed the dummy input
    server; [externs] resolve body-less external functions.  [policy]
    overrides the sanitizer's [default_policy]; [fault] threads a fault
    injector into the run (see {!Vm.Fault}).  [backend] (default
    [Interp]) selects the interpreter or the threaded-code jit; [fuel] meters jit compilation (burned identically whether the
    jit's compile cache hits or misses). *)

val run :
  Spec.t ->
  ?lines:string list ->
  ?packets:string list ->
  ?externs:(string * (Vm.State.t -> int array -> int)) list ->
  ?budget:int ->
  ?seed:int ->
  ?policy:Vm.Report.policy ->
  ?fault:Vm.Fault.t ->
  ?fuel:Tir.Fuel.t ->
  ?backend:Vm.Machine.backend ->
  ?optimize:bool ->
  string ->
  run_result
(** [build] + [run_module] in one step.  When no [fuel] is given but
    [fault] carries a [Fuel n] injection, a compile-phase fuel of [n]
    steps is created from it, so the ["fuel:N"] fault surface reaches
    the pipeline (jit compilation included). *)
