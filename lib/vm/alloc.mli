(** The default ("libc") heap allocator: segregated free lists over a
    bump region, with a 16-byte header (size + magic) kept IN simulated
    memory -- so underflows really corrupt it and invalid frees really
    trip the glibc-style aborts.

    CECSan's compatibility claim is that it needs no replacement for
    this allocator; ASan installs its own instead. *)

type t = {
  mem : Memory.t;
  mutable brk : int;                          (** heap frontier *)
  free_lists : (int, int list ref) Hashtbl.t; (** rounded size -> blocks *)
  mutable live : int;
  mutable total_allocated : int;
  mutable peak_live : int;  (** high-water mark of [live] *)
  mutable recycles : int;   (** allocations served from a free list *)
}

val create : Memory.t -> t

val malloc : t -> int -> int
(** Returns the payload address; traps when the simulated heap is
    exhausted. *)

val block_size : t -> int -> int option
(** Size of a live block, or [None] if the header looks corrupt. *)

val free : t -> int -> unit
(** Validates the header magic: frees of invalid pointers and double
    frees raise the glibc-style [Heap_corruption] trap.  [free t 0] is a
    no-op. *)
