(** Sparse paged memory with residency accounting.

    Pages materialize on first touch, mmap-style, and the count of
    distinct pages ever touched is the run's resident set -- the basis
    of the memory-overhead numbers in Tables IV/V.  Accesses above
    [Layout46.shadow_base] are attributed to sanitizer structures. *)

type t = {
  pages : (int, bytes) Hashtbl.t;
  mutable resident_pages : int;
  mutable sanitizer_pages : int;
  mutable last_pn : int;
      (** last-page cache, program slot: page number ... *)
  mutable last_page : bytes;  (** ... and its backing store *)
  mutable san_pn : int;
      (** sanitizer slot, for pages at or above [Layout46.shadow_base]:
          page number ... *)
  mutable san_page : bytes;  (** ... and its backing store *)
  cache_pn : int array;
      (** direct-mapped page cache behind the two slots: page numbers
          ([min_int] = empty) ... *)
  cache_page : bytes array;  (** ... and their backing stores *)
}
(** Page lookups go through three levels, none of them observable: the
    last-page cache's two slots, so that sanitizer metadata, shadow and
    tag reads never evict the program's page (nor the reverse); then a
    128-entry direct-mapped cache indexed by a hash of the page number;
    then the page table, which only a cache miss reads and only
    materialization writes.  A page's slot is a function of its
    address; residency accounting is independent of every cache. *)

val create : unit -> t
(** An empty memory.  Every allocation it makes stays in the minor
    heap. *)

val invalidate_cache : t -> unit
(** Drops both last-page cache slots and the page cache.  Today no VM
    operation removes or replaces a materialized page (free/realloc
    recycle address ranges; fault-injected table shrink only narrows the
    metadata table's logical limit), so no cache can ever hold dangling
    backing store; any future page-table mutation that breaks that
    invariant must call this first. *)

val page : t -> int -> bytes
(** The 4 KiB page backing address [a], materialized on first touch and
    left in the last-page cache slot of its area.  Exposed for the jit's
    inlined access fast path; the returned bytes are always
    [Layout46.page_size] long. *)

(** {2 Words}

    The one definition of the memory's little-endian words, read and
    written in place (no allocation).  [off] must satisfy
    [0 <= off] and [off + size <= Layout46.page_size] for the access's
    [size]; nothing is checked.  The memory holds 63-bit words: an
    8-byte store keeps only bits 56..62 in byte 7, and an 8-byte load
    drops byte 7's top bit. *)

val get16 : bytes -> int -> int
(** Unsigned, like [get32]. *)

val get32 : bytes -> int -> int
val get_word : bytes -> int -> int

val set16 : bytes -> int -> int -> unit
(** Stores the low 16 bits, like [set32] the low 32. *)

val set32 : bytes -> int -> int -> unit
val set_word : bytes -> int -> int -> unit

val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

val load : t -> int -> int -> int
(** [load mem a size] little-endian load of 1/2/4/8 bytes, through the
    word functions above unless the access straddles a page. *)

val store : t -> int -> int -> int -> unit
(** [store mem a size v]: little-endian store of [v]'s low [size]
    bytes.  A page-straddling 8-byte store writes byte by byte the same
    63-bit word [set_word] writes in place. *)

val blit_from_bytes : t -> bytes -> int -> int -> unit
(** [blit_from_bytes mem src dst len] loads an image (e.g. a global's
    initializer) into simulated memory. *)

val copy : t -> src:int -> dst:int -> len:int -> unit
(** Overlap-safe (memmove semantics). *)

val fill : t -> dst:int -> len:int -> int -> unit

val strlen : t -> int -> int
(** Unchecked C-string scan, capped to avoid unbounded walks. *)

val read_string : t -> int -> string

val read_len : t -> int -> int -> string
(** [read_len mem a n] extracts [n] raw bytes starting at [a]
    (page-chunked; no NUL scan, no mapping check). *)

val write_string : t -> int -> string -> unit

val resident_bytes : t -> int
(** All touched pages, in bytes. *)

val program_bytes : t -> int
(** Touched pages outside the sanitizer areas. *)

val sanitizer_bytes : t -> int
