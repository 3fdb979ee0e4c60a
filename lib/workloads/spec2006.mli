(** SPEC CPU2006-like kernels (Table IV): eight MiniC programs
    reproducing each benchmark's workload shape (allocation rate,
    pointer density, loop structure, string traffic).  Each kernel
    self-checks: [w_expected] is the exit code every (sanitized or not)
    run must produce. *)

type t = {
  w_name : string;
  w_source : string;
  w_expected : int;
}

val perlbench : t   (* string interning, heavy allocator churn *)
val gcc : t         (* tokenizer + recursive-descent constant folder *)
val mcf : t         (* relaxation over a big arc array: pointer chasing *)

val all : t list
