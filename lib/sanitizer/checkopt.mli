(** The shared check-optimization machinery (paper section II.F), used
    by CECSan and the ASan-- baseline:

    - redundant-check elimination within a block (with copy
      canonicalization);
    - loop-invariant check hoisting -- stores too for table-based tools,
      loads only for redzone tools;
    - monotonic check grouping: when the [Tir.Scev] mini scalar
      evolution determines the max access range statically (constant or
      constant-initialized bounds; plain and struct-array affine
      accesses), the per-iteration checks collapse to checks of the
      range's extremes.

    The sanitizer description is [Tir.Verify.spec] -- the same record
    also drives the static verifier that re-derives these
    transformations' reasoning. *)

type spec = Tir.Verify.spec = {
  check_load : string;
  check_store : string;
  produces_addr : bool;  (** the check's result is the stripped address *)
  strip_mask : int;
  may_hoist_stores : bool;
  hazard_intrinsics : string list;
      (** runtime calls that can invalidate metadata: barriers for both
          optimizations *)
  extcall_strip : string option;
      (** tag-strip intrinsic required on pointer args of external
          calls; used by the verifier, ignored by the optimizer *)
  absint : Tir.Absint.model option;
      (** abstract-interpretation model of the tool's intrinsics,
          enabling the certified-elision pass ({!absint}) *)
}

val redundant : spec -> ?pure:(string -> bool) -> Tir.Ir.func -> int
(** Block-local elimination, keyed on the canonical operand through the
    block's copy chains ({!Tir.Copies}); returns the number of checks
    removed.
    [pure] (default: nothing is pure) marks callees that cannot touch
    metadata, making calls to them transparent; pass the
    [Tir.Analysis.pure_callees] closure so the verifier agrees. *)

type loop_stats = { hoisted : int; endpoints : int; grouped : int }

val loops : spec -> ?pure:(string -> bool) -> Tir.Ir.modul -> Tir.Ir.func ->
  loop_stats
(** Loop-invariant hoisting and endpoint grouping over the function's
    natural loops.  Grouping checks a loop's whole access range at its
    extremes, so it has no grouping factor.  Loops containing hazard
    intrinsics or calls to non-[pure] callees are left alone (their
    metadata could change mid-loop). *)

type absint_stats = { elided : int; downgraded : int; facts : int }

val absint : pure:(string -> bool) -> Tir.Ir.modul -> spec -> absint_stats
(** Certified check elision from whole-program abstract interpretation
    (DESIGN.md section 16), over the module's
    [Tir.Analysis.pure_callees] closure [pure] (the one {!redundant} and
    {!loops} take).  A check whose pointer provably stays in bounds of
    a live, non-escaping object is replaced by a zero-cost elided
    marker (plus a tag-strip of its destination); one whose
    temporal half alone is proved is renamed to the model's
    spatial-only variant at the same site.  Every rewrite appends a
    {!Tir.Witness.t} to the module for [Tir.Verify] to replay.  No-op
    when the spec carries no model.  Must run after {!redundant} and
    {!loops}, which key on the original check names. *)
