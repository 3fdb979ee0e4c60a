(** The interface a sanitizer runtime presents to the VM: intrinsic
    implementations, optional allocator replacement, libc interceptors,
    top-byte-ignore configuration, and the Algorithm 1 checks the jit
    may inline. *)

type intrinsic = State.t -> int array -> int
(** Implementation of an [Iintrin]; the machine appends the site id as a
    trailing argument. *)

type interceptor = State.t -> raw:(int array -> int) -> int array -> int
(** A checking wrapper around a libc builtin.  [raw] runs the
    uninstrumented implementation (with TBI masking already applied when
    the runtime asked for it). *)

type check = {
  ck_name : string;
  ck_cost : int;  (** cycles charged per execution *)
  ck_slow : State.t -> int -> int -> int -> int;
      (** [ck_slow st ptr size site]: the runtime's own check minus its
          tick; returns the stripped pointer *)
  ck_intrinsic : intrinsic;
      (** the closure registered under [ck_name]: tick, then [ck_slow] *)
}
(** An Algorithm 1 dereference check, described so the jit can inline
    it.  The intrinsic takes [(ptr, size, site)] and returns the
    stripped pointer.  The fast path is the VM's: a nonzero tag whose
    entry at [Layout46.meta_entry tag] satisfies the fused compare
    [((raw - lo) lor (hi - (raw + size))) >= 0] passes with no effect
    beyond the tick.  Everything else -- entry 0, chained objects,
    reporting -- is [ck_slow]'s, which must agree with the fast path
    wherever that passes. *)

type t = {
  rt_name : string;
  intrinsics : (string, intrinsic) Hashtbl.t;
  malloc : (State.t -> int -> int) option;
      (** replaces the default allocator (ASan does; CECSan does not) *)
  free_ : (State.t -> int -> unit) option;
  intercept : string -> interceptor option;
      (** a builtin with no interceptor runs raw -- which is precisely
          how overflows through un-wrapped functions escape detection *)
  usable_size : (State.t -> int -> int option) option;
      (** block size under a replaced allocator (for realloc) *)
  tbi_bits : int;
      (** bits of top-byte-ignore requested from the "hardware" *)
  at_exit : State.t -> unit;
      (** runs once when the program ends, before the outcome is built:
          CECSan publishes its metadata-table gauges here *)
  mutable checks : check list;
      (** inlinable checks, added by {!register_check} *)
}

val plain : string -> t
(** A runtime with no hooks at all. *)

val none : t
(** The uninstrumented baseline. *)

val register : t -> string -> intrinsic -> unit
val find_intrinsic : t -> string -> intrinsic option

val register_check :
  t -> name:string -> cost:int -> (State.t -> int -> int -> int -> int) ->
  unit
(** [register_check rt ~name ~cost slow] registers the intrinsic [name]
    as "tick [cost], then [slow st ptr size site]" and describes it in
    [checks].  A machine slot bound to exactly that closure (physical
    equality, decided by [Machine.create]) runs the check inline on the
    jit; a later {!register} over [name] rebinds the name to a plain
    closure. *)
