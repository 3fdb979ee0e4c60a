(** CECSan configuration: feature and optimization toggles used by the
    ablation experiments.  Stack and global protection are always on,
    and the finding policy is the driver's ([Driver.run ?policy]). *)

type t = {
  subobject : bool;       (** sub-object bound narrowing (section II.D) *)
  opt_redundant : bool;   (** redundant check elimination (II.F) *)
  opt_loop : bool;        (** loop-invariant hoisting + monotonic
                              grouping (II.F.1) *)
  opt_typeinfo : bool;    (** statically-safe check removal (II.F.2) *)
  opt_absint : bool;      (** certified elision from whole-program
                              abstract interpretation (DESIGN.md 16) *)
  chain_overflow : bool;
      (** the section V.1 future-work extension: on metadata-table
          exhaustion, chain conflicting metadata off shared indices
          instead of degrading to unprotected entry-0 pointers *)
}

val default : t
(** The full system, as evaluated in the paper. *)

val no_opts : t
(** All II.F optimizations disabled (ablation). *)

val no_subobject : t
(** Object-granularity only: what ASan/PACMem-class tools see. *)

val with_chain : t
(** [default] plus the overflow-chain extension of section V.1. *)

