(** Machine-checkable elision certificates.

    Checkopt's absint phase attaches one witness per elided or
    downgraded check, plus the function's fixpoint as an
    {!Absint.cert}; [Verify] checks the certificate, replays each
    witness against the site states the check yields, and rejects the
    build if any fact cannot be re-derived. *)

type kind =
  | Welide      (** check removed outright *)
  | Wdowngrade  (** check renamed to its spatial-only variant *)

type t = {
  w_site : int;
  w_func : string;
  w_kind : kind;
  w_reg : int;
  w_dst : int option;
  w_size : int;
  w_obj : string;
  w_lo : int;
  w_hi : int;
  w_objsize : int;
  w_temporal : bool;
  w_escapes : bool;
}
