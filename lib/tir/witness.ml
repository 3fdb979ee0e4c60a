(* Tir.Witness: machine-checkable elision certificates.

   Every check that Checkopt's absint phase elides or downgrades carries
   one of these records -- the exact abstract facts the optimizer used --
   and the function carries the fixpoint they rest on as an
   [Absint.cert].  Tir.Verify checks that certificate against the
   *post-optimization* IR in one pass ([Absint.check_cert]) and replays
   each witness against the site states it yields: the claimed facts
   must be re-derivable (the derived interval must be contained in the
   claimed one, the object must be live and non-escaping, the claimed
   bounds must imply in-bounds access).  A witness that cannot be
   re-proved, or a certificate that is missing or not a fixpoint, is a
   build error, so the optimizer can never silently drop coverage
   (DESIGN.md section 16). *)

type kind =
  | Welide      (* check removed outright: spatial + temporal both proved *)
  | Wdowngrade  (* temporal half proved; check renamed to its spatial-only
                   variant at the same site *)

type t = {
  w_site : int;          (* telemetry site id of the (ex-)check *)
  w_func : string;       (* enclosing function, for replay scoping *)
  w_kind : kind;
  w_reg : int;           (* register holding the checked pointer *)
  w_dst : int option;    (* the check's destination register, if any *)
  w_size : int;          (* access size in bytes *)
  w_obj : string;        (* abstract object descriptor, e.g. "slot:a" *)
  w_lo : int;            (* claimed offset interval of [w_reg] inside *)
  w_hi : int;            (*   the object: lo <= off <= hi *)
  w_objsize : int;       (* claimed object size in bytes *)
  w_temporal : bool;     (* claimed: no free of the object reaches here *)
  w_escapes : bool;      (* claimed escape status (must be false) *)
}
