(** Suite assembly: the generated grid at 1/16 of Table I's scale, with
    the paper's per-CWE proportions. *)

val targets : (Case.cwe * int) list
(** Per-CWE target counts (paper counts divided by 16). *)

val cases_for : Case.cwe -> Case.t list
(** All cases of one CWE, deterministic order: families crossed with
    flow variants, truncated to the target in a flow-major interleave. *)

val all : unit -> Case.t list
(** The whole suite (985 cases). *)

val table1 : unit -> (string * string * int) list
(** Rows of Table I: (CWE, description, generated count). *)
