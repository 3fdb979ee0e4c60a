(** The CECSan runtime library: metadata management, the fused
    spatial+temporal checks of Algorithms 1 and 2, the libc interceptors
    (including the wide-character family), and the external-call
    boundary handling of section II.E.

    There is deliberately NO custom allocator here: allocation goes
    through the default [Vm.Heap], with CECSan only adding metadata --
    the compatibility property the paper claims over ASan. *)

val name : string

type gpt
(** The Global Pointer Table's lookup side: slot index -> tagged
    pointer, a growable array. *)

val gpt_create : unit -> gpt

val gpt_find : gpt -> int -> int
(** The pointer made for a slot, or 0 if the slot was never made (or is
    negative). *)

val gpt_add : gpt -> int -> int -> unit
(** [gpt_add g slot v] records [v] for [slot], growing the table; a
    negative slot is ignored. *)

type t = {
  mutable table : Meta_table.t option;
      (** created lazily on first use: the load-time constructor *)
  gpt : gpt;
      (** the Global Pointer Table: slot index -> tagged pointer *)
  mutable reports_sub_object : int;
  chain_overflow : bool;
      (** the section V.1 overflow-chain extension *)
  mutable entry0_hits : int;
      (** Algorithm-1 checks that resolved to the reserved entry 0
          (untagged/foreign pointers); published as a gauge at exit *)
  mutable sub_temporaries : int;
      (** narrowed sub-object entries materialized (section II.D) *)
}

val get_table : t -> Vm.State.t -> Meta_table.t

val check_deref :
  t -> Vm.State.t -> write:bool -> size:int -> site:int -> cost:int -> int ->
  int
(** Algorithm 1: the optimized dereference check.  Charges [cost] cycles
    ([Costs.check], or [Costs.check_spatial] for the spatial-only
    downgrades -- detection is identical, only the charge differs) and
    returns the STRIPPED address for the access.  A spatial or temporal
    violation (a freed entry's INVALID low bound makes the same fused
    compare fail) goes to the run's sink, attributed to [site]: it
    raises [Vm.Report.Bug] under [Halt] and records then proceeds with
    the stripped access under [Recover].  The runtime registers its four
    check intrinsics through [Vm.Runtime.register_check] with this
    function minus its tick as the slow path, so the jit may inline the
    passing case. *)

val check_range : t -> Vm.State.t -> write:bool -> int -> int -> int
(** [check_range t st ~write ptr len] validates [ptr, ptr+len) against
    the pointer's entry; used by the libc interceptors. *)

val cecsan_malloc : t -> Vm.State.t -> int -> int
(** Default-allocator malloc plus metadata creation; returns the tagged
    pointer. *)

val cecsan_free : t -> Vm.State.t -> int -> unit
(** Algorithm 2: validates that the pointer is the live base of a heap
    object (catching double/invalid frees), invalidates the entry, then
    frees through the default allocator. *)

val cecsan_realloc : t -> Vm.State.t -> int -> int -> int

val stack_make : t -> Vm.State.t -> int -> int -> int
(** Prologue half of stack protection: registers an unsafe stack object
    and returns its tagged address. *)

val stack_release : t -> Vm.State.t -> int -> unit
(** Epilogue half: releases the entry if it still describes the object. *)

val global_make : t -> Vm.State.t -> slot:int -> int -> int -> int
(** Registers an unsafe global and stores its tagged pointer in the GPT. *)

val gpt_load : t -> Vm.State.t -> int -> int
(** Loads a tagged global pointer from the GPT (not itself checked, per
    the paper: all GPT accesses are compiler-generated). *)

val sub_make : t -> Vm.State.t -> int -> int -> int
(** Section II.D: validates a field address against its parent entry and
    mints a temporary narrowed entry for the field. *)

val sub_release : t -> Vm.State.t -> int -> unit

val extcall_strip : t -> Vm.State.t -> int -> int
(** Section II.E: checks (temporal) and strips a pointer crossing into
    external, uninstrumented code. *)

val retag : Vm.State.t -> original:int -> int -> int
(** Re-applies [original]'s tag to a pointer returned by a libc function
    that returns one of its pointer arguments. *)

val interceptors : t -> string -> Vm.Runtime.interceptor option
(** The checking wrappers around libc builtins; coverage includes
    wcscpy/wcsncpy/wcscat/wcslen/wcscmp, which most sanitizers omit. *)

val stats : t -> int * int
(** [(peak live entries, total entries ever allocated)]. *)

val create : ?chain_overflow:bool -> unit -> t * Vm.Runtime.t
(** Fresh per-run runtime state plus its VM-facing interface. *)
