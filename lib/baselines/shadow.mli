(** ASan-style shadow memory: one shadow byte per 8-byte granule
    (0 = addressable, 1..7 = partially addressable, >= 0x80 = poisoned
    with a reason code). *)

val heap_left : int
val heap_right : int
val heap_freed : int
val stack_red : int
val global_red : int

val get : Vm.State.t -> int -> int

val unpoison : Vm.State.t -> int -> int -> unit
(** Marks a (granule-aligned) range addressable, encoding a partial last
    granule. *)

val poison : Vm.State.t -> int -> int -> int -> unit
(** [poison st addr len code]. *)

val access_ok : Vm.State.t -> int -> int -> bool
(** The fast-path check for a [size]-byte access. *)

val range_bad : Vm.State.t -> int -> int -> int option
(** First bad address in a range, if any (interceptors). *)

val classify : int -> write:bool -> Vm.Report.bug_kind
