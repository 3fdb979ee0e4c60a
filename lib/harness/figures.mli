(** Runnable reproductions of the paper's figures (3 and 4; Figures 1-2
    are the pipeline itself and [Cecsan.Meta_table] respectively). *)

val fig3_source : string
(** Figure 3 of the paper, verbatim modulo MiniC syntax. *)

val fig3 :
  ?backend:Vm.Machine.backend -> Format.formatter -> unit -> unit
(** Runs Figure 3 under CECSan and the object-granularity baselines. *)

val fig4 :
  ?backend:Vm.Machine.backend -> Format.formatter -> unit -> unit
(** Demonstrates the section II.F optimizations: static sites, dynamic
    cycles, and detection preservation. *)
