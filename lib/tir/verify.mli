(** Static certification of instrumented modules: an IR well-formedness
    lint plus a check-coverage dataflow that proves every unsafe access
    is covered by a sanitizer check whose statically-derived range
    contains it (translation validation for the section II.F
    optimizations).  See DESIGN.md section 11.  A sanitizer is
    described by its role table, {!Analysis.spec}. *)

type spec = Analysis.spec = {
  check_load : string;
  check_store : string;
  spatial : bool;
  intrinsics : Analysis.roles;
  calls : Analysis.roles;
  produces_addr : bool;
  strip_mask : int;
  may_hoist_stores : bool;
  slots : bool;
  certified : bool;
}
(** {!Analysis.spec}, with its fields re-exported for
    bench/e2e/pipeline.ml, which reads [spec.Tir.Verify.check_load]. *)

type error = {
  e_func : string;
  e_block : int;                  (** -1 for function-level errors *)
  e_what : string;
}

type report = {
  r_errors : error list;
  r_accesses : int;               (** unsafe accesses under obligation *)
  r_covered : int;                (** accesses proven covered *)
  r_funcs : int;                  (** non-external functions examined *)
  r_witnesses : int;              (** elision witnesses successfully replayed *)
}

val error_to_string : error -> string

val well_formed : ?fuel:Fuel.t -> Ir.modul -> error list
(** Lint only: structure, register/slot/global/callee resolution, size
    sanity, return arity, definite assignment.  [fuel] bounds the
    dataflow fixpoints; exhaustion raises {!Fuel.Exhausted}. *)

val absint_ctx : Analysis.spec -> Ir.modul -> Absint.ctx option
(** The absint context coverage checks certificates and replays
    witnesses against: the tool's role table over the module's
    metadata-pure callees.  [None] when the tool is not certified. *)

val check : ?spec:Analysis.spec -> ?fuel:Fuel.t -> Ir.modul -> report
(** [well_formed] plus, when [spec] is given, coverage; errors
    concatenated (lint first), counters from coverage.  [fuel] bounds
    both dataflow fixpoints deterministically.  Coverage: check
    intrinsics (spatial variants included) generate facts; calls to
    impure callees and hazard intrinsics ({!Analysis.is_hazard},
    undeclared names included) kill them.  When the spec declares a
    [Strip], pointer arguments of external calls must come from its
    first one.  When it is [certified], a function with witnesses or
    spatial-only checks must carry an {!Absint.cert} in [m_certs] that
    {!Absint.check_cert} accepts on the post-optimization IR; every
    {!Witness.t} is replayed against the site states of that check,
    validated witnesses regenerate the elided checks' coverage facts,
    and every spatial-only (downgraded) check site must carry a valid
    downgrade witness.  A missing or rejected certificate is an error.
    An uncertified spec rejects any witness outright. *)
