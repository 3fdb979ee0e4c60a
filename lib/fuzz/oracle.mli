(** Differential oracle: runs a generated program uninstrumented and
    under CECSan (Halt/Recover, optimizer on/off) plus selected
    baselines, and classifies disagreements against the DESIGN.md
    section 3 capability matrix. *)

val externs : (string * (Vm.State.t -> int array -> int)) list
(** The extern functions generated programs may call (tag-stripping
    boundary models); registered for every oracle run. *)

type tool_run = {
  tool : string;
  detected : bool;
  outcome : string;
  out_text : string;
  exit_code : int option;
  excluded : bool;
  first_kind : Vm.Report.bug_kind option;
  snapshot : Telemetry.Snapshot.t;
      (** the run's telemetry, used for mismatch deltas *)
  sites : int list;
      (** every instrumented site id, reached or not — the universe
          [Telemetry.Snapshot.sites_full] inflates coverage against *)
}

type failure =
  | Gen_invalid of string
  | False_positive of { tool : string; detail : string }
  | False_negative of { tool : string; cls : Gen.bug_class }
  | Misclassified of { tool : string; expected : Gen.bug_class;
                       got : string }
  | Divergence of { tool : string; detail : string }
  | Opt_unsound of { detail : string }
  | Verifier_reject of { tool : string; detail : string }
      (** [Tir.Verify] refused the tool's instrumented/optimized output *)

val failure_name : failure -> string
(** Stable constructor+tool label; shrinking preserves it. *)

val failure_detail : failure -> string

val kind_ok : Gen.bug_class -> Vm.Report.bug_kind -> bool

exception Compile_error of string

val run_tool :
  Sanitizer.Spec.t -> ?policy:Vm.Report.policy -> ?fault:Vm.Fault.t ->
  ?backend:Vm.Machine.backend -> optimize:bool -> string -> tool_run

val evaluate :
  ?tools:Sanitizer.Spec.t list -> ?fault:Vm.Fault.t ->
  ?backend:Vm.Machine.backend -> Gen.program -> failure list
(** Empty list = the program passes every oracle rule.  [backend]
    threads into every run (verdicts are backend-independent). *)

val evaluate_cov :
  ?tools:Sanitizer.Spec.t list -> ?fault:Vm.Fault.t ->
  ?backend:Vm.Machine.backend -> Gen.program ->
  failure list * Telemetry.Snapshot.t * Coverage.t
(** [evaluate] plus the CECSan(-O2) run's telemetry snapshot, for
    campaign-level aggregation (merged in submission order), and the
    program's coverage bitmap: legs 0/1/2 are CECSan O2 / O0 /
    noabsint, then one leg per extra baseline in lineup order (capped
    at [Coverage.max_legs]).  Compile errors and verifier rejections
    yield [Coverage.empty].  [fault] threads one injector spec into
    every run uniformly (each run clones it), including the
    uninstrumented reference; injected crash/fuel-exhaustion exceptions
    escape to the supervision layer. *)
