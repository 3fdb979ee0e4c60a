(** The compact, reusable metadata table (paper section II.B, Figure 2).

    A linear array of [(low bound, high bound, nextID)] entries living in
    simulated memory, indexed by the 17 tag bits of a pointer.  Freed
    entries form an in-table free list threaded through [nextID] and are
    reused LIFO.  Entry 0 is reserved for untagged/foreign pointers and
    always passes checks.  The entry layout is [Vm.Layout46.meta_entry]'s,
    shared with the jit's inlined check. *)

val invalid_low : int
(** The "very high value" written to a freed entry's low bound; it forces
    every subsequent Algorithm-1 check against that entry to fail. *)

type chain_entry = { c_lo : int; c_hi : int }
(** One overflow-chained object (the section V.1 extension). *)

type t = {
  st : Vm.State.t;
  mutable gmi : int;  (** the Global Metadata Index of the paper *)
  mutable live : int;
  mutable peak_live : int;
  mutable total_allocated : int;
  mutable recycled : int;
      (** entries re-served off the in-table free list *)
  mutable exhausted_fallbacks : int;
      (** allocations served untagged because the table was full
          (paper section V.1) *)
  mutable chain_mode : bool;
  chains : (int, chain_entry list ref) Hashtbl.t;
  mutable chained : int;      (** live chained objects *)
  mutable chain_total : int;  (** objects ever chained *)
  mutable chain_cursor : int;
  mutable chain_lookups : int;
      (** slow-path chain searches (lookup + release) *)
  mutable chain_links_walked : int;
      (** total links traversed across all chain searches *)
}

val create : ?chain_mode:bool -> Vm.State.t -> t
(** The runtime constructor: initializes entry 0 to [(0, VA_MAX)] and
    GMI to 1.  Corresponds to the load-time constructor of section III.
    With [chain_mode], table exhaustion chains metadata off shared
    indices instead of degrading to unprotected pointers. *)

val low : t -> int -> int
(** [low t i] reads entry [i]'s low bound. *)

val high : t -> int -> int
(** [high t i] reads entry [i]'s high bound. *)

val alloc : t -> base:int -> size:int -> int
(** [alloc t ~base ~size] creates an entry for the object
    [base, base+size) and returns the TAGGED pointer (index embedded in
    bits 46..62).  On table exhaustion the raw pointer is returned
    untagged (entry 0 semantics) and [exhausted_fallbacks] is bumped. *)

val chain_covers : t -> int -> raw:int -> size:int -> int option
(** Does some overflow-chain element of index [i] cover the access?
    Returns the number of links walked (the extension's cost). *)

val chain_find : t -> int -> raw:int -> (chain_entry * int) option
(** The chain element containing [raw] plus the links walked to reach
    it; callers that need the element's bounds (strlen, realloc) use
    this instead of {!chain_covers}. *)

val chain_release : t -> int -> raw:int -> bool
(** Removes the chain element whose base is [raw]; true on success. *)

val release : t -> int -> unit
(** [release t i] invalidates entry [i] (low := INVALID, high := 0) and
    pushes it on the free list.  Releasing entry 0 is a no-op. *)
