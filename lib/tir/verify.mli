(** Static certification of instrumented modules: an IR well-formedness
    lint plus a check-coverage dataflow that proves every unsafe access
    is covered by a sanitizer check whose statically-derived range
    contains it (translation validation for the section II.F
    optimizations).  See DESIGN.md section 11. *)

type spec = {
  check_load : string;            (** load-check intrinsic name *)
  check_store : string;           (** store-check intrinsic name *)
  produces_addr : bool;           (** check dst = stripped address *)
  strip_mask : int;               (** mask replacing an elided strip *)
  may_hoist_stores : bool;        (** store checks may leave their block *)
  hazard_intrinsics : string list;
  (** runtime calls that change metadata and kill coverage facts *)
  extcall_strip : string option;
  (** when set, pointer args of external calls must route through this
      strip intrinsic *)
  absint : Absint.model option;
  (** abstract-interpretation model of the tool's intrinsics.  When
      set, a function with witnesses or spatial-only checks must carry
      an {!Absint.cert} in [m_certs] that {!Absint.check_cert} accepts
      on the post-optimization IR; every {!Witness.t} is replayed
      against the site states of that check, validated witnesses
      regenerate the elided checks' coverage facts, and every
      spatial-only (downgraded) check site must carry a valid
      downgrade witness.  A missing or rejected certificate is an
      error.  [None] rejects any witness outright. *)
}

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

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val well_formed : ?fuel:Fuel.t -> Ir.modul -> error list
(** Lint only: structure, register/slot/global/callee resolution, size
    sanity, return arity, definite assignment.  [fuel] bounds the
    dataflow fixpoints; exhaustion raises {!Fuel.Exhausted}. *)

val absint_ctx : spec -> Ir.modul -> Absint.ctx option
(** The absint context [coverage] checks certificates and replays
    witnesses against: the tool's model over the module's
    metadata-pure callees.  [None] when the tool has no model. *)

val coverage : ?fuel:Fuel.t -> spec -> Ir.modul -> report
(** Coverage dataflow only (no lint errors in the report). *)

val check : ?spec:spec -> ?fuel:Fuel.t -> Ir.modul -> report
(** [well_formed] plus, when [spec] is given, [coverage]; errors
    concatenated, counters from the coverage half.  [fuel] bounds both
    dataflow fixpoints deterministically. *)
