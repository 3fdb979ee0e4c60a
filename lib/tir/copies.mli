(** Block-local copy chains over one function's registers: after
    [q = p], [q] canonicalizes to [p] until [q] or [p] is redefined.
    The redundant-check pass ([Sanitizer.Checkopt.redundant]) and the
    coverage verifier ({!Verify}) each build their own table from this
    one implementation (DESIGN.md section 11).

    Dense over [[0, nregs)], with an overflow index for any other
    register a copy names, so malformed IR keeps its meaning.  [kill],
    [canon] and [reset] are constant time and allocate nothing. *)

type t

val create : int -> t
(** A table for a function of [nregs] registers, with no copies. *)

val empty : t
(** The view with no copies, shared: pass it only to {!canon}. *)

val canon : t -> int -> int
(** The root a register copies, or the register itself. *)

val kill : t -> int -> unit
(** The register is redefined: its own copy and every copy of it die. *)

val move : t -> dst:int -> src:int -> unit
(** [dst = src]: kills [dst], then records it as a copy of
    [canon src] (a self-copy records nothing). *)

val reset : t -> unit
(** Drops every copy, as at the start of a block. *)
