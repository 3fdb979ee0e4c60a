(** Paper-style table rendering: one entry point per table of the
    evaluation section, plus the optimization ablation. *)

val table1 : Format.formatter -> unit -> unit

type table2_data = { t2_tools : Juliet.Runner.tool_results list }

val run_table2 :
  ?pool:Pool.t -> ?cases:Juliet.Case.t list ->
  ?backend:Vm.Machine.backend -> unit -> table2_data
(** [pool] parallelizes each tool's case loop; results are identical
    to the sequential run (and to either [backend]). *)

val table2 : Format.formatter -> table2_data -> unit

val table3 :
  ?backend:Vm.Machine.backend -> Format.formatter -> unit -> unit

val table4 : Format.formatter -> Overhead.row list -> unit
val table5 : Format.formatter -> Overhead.row list -> unit

val ablation :
  ?pool:Pool.t -> ?backend:Vm.Machine.backend -> Format.formatter ->
  Workloads.Spec2006.t list -> unit
