(** AddressSanitizer: the redzone/shadow-memory baseline, faithful to
    the real architecture: a CUSTOM allocator (the compatibility cost
    the paper holds against it) laying chunks out as
    [left redzone | payload | right redzone], a FIFO quarantine, shadow
    checks on every access, in-frame stack redzones, trailing global
    redzones, and narrow-string interceptors (no wide-character family).

    Structural misses, each pinned by a test: sub-object overflows, far
    strides over the redzone into the next payload, wide-char libc,
    use-after-free past quarantine eviction. *)

val name : string
val default_quarantine_cap : int

type t

val asan_malloc : t -> Vm.State.t -> int -> int
val asan_free : t -> Vm.State.t -> int -> unit
val check : t -> Vm.State.t -> write:bool -> int -> int -> unit
val check_region : t -> Vm.State.t -> write:bool -> int -> int -> unit

val instrument : checked:(bool -> bool) -> Tir.Ir.modul -> unit
(** In-frame stack redzones, trailing global redzones poisoned at the
    start of [main], and a shadow check before every access whose
    [safe] flag satisfies [checked] ([fun _ -> true] for ASan, [not] for
    ASan--). *)

val verify_spec : Tir.Analysis.spec
(** Shadow checks that return nothing, poison/unpoison as the hazards,
    no check optimization and no certified elision. *)

val fresh_runtime : ?quarantine_cap:int -> unit -> Vm.Runtime.t
val sanitizer : ?quarantine_cap:int -> unit -> Sanitizer.Spec.t
