(** The CECSan runtime library: metadata management, the fused
    spatial+temporal checks of Algorithms 1 and 2, the libc interceptors
    (including the wide-character family), and the external-call
    boundary handling of section II.E.

    There is deliberately NO custom allocator here: allocation goes
    through the default [Vm.Heap], with CECSan only adding metadata --
    the compatibility property the paper claims over ASan.  The other
    intrinsics are reached only through the table {!create} registers,
    whose names [Opt.spec] declares. *)

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

val cecsan_malloc : t -> Vm.State.t -> int -> int
(** Default-allocator malloc plus metadata creation; returns the tagged
    pointer. *)

val create : ?chain_overflow:bool -> unit -> t * Vm.Runtime.t
(** Fresh per-run runtime state plus its VM-facing interface. *)
