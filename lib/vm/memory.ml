(* Sparse paged memory with residency accounting.

   Pages are materialized on first touch (like anonymous mmap), and the
   number of distinct pages ever touched is the run's resident set --
   which is how the paper's memory-overhead numbers arise: CECSan's
   metadata table *reserves* 3 MiB but only the entries actually written
   become resident, while ASan's redzones, shadow and quarantine all get
   touched and stay resident.

   The memory does NOT enforce region validity itself; [Machine] checks
   that program accesses fall into mapped program regions.  Sanitizer
   structures (shadow, tag and metadata areas) bypass that check but
   still count toward residency. *)

type t = {
  pages : (int, bytes) Hashtbl.t;
  mutable resident_pages : int;
  (* residency split for reporting: program vs sanitizer areas *)
  mutable sanitizer_pages : int;
  (* last-page cache, two slots: consecutive accesses to the same 4 KiB
     page (the overwhelmingly common case -- stack frames, string scans,
     stencil rows) skip every lookup.  Program pages and sanitizer
     pages (at or above [Layout46.shadow_base]: shadow, tags, metadata,
     aux) each get their own slot, so a check's metadata/shadow read
     between two program accesses evicts neither side.  Which slot a
     page lands in depends only on its address; materialization and
     residency accounting happen in [page_slow] whatever the slot.

     Behind the two slots sits a direct-mapped page cache of
     [cache_size] entries, indexed by a multiplicative hash of the page
     number, so a working set of a few dozen pages (a stack frame, two
     arrays, the metadata entries they use) stays off the hashtable.

     Staleness invariant: each slot and cache entry holds the SAME bytes
     object as the hashtable entry, and nothing in the VM ever removes
     or replaces a page once materialized -- free/realloc recycle
     address ranges without touching the page table, and fault injection
     (table:N) only narrows the metadata table's logical entry limit.
     So a slot can be stale in page-number only (after another page is
     touched), never in content.  Any future operation that removes or
     swaps a pages entry MUST call [invalidate_cache] or the next
     same-page access reads freed backing store. *)
  mutable last_pn : int;      (* program slot *)
  mutable last_page : bytes;
  mutable san_pn : int;       (* sanitizer slot *)
  mutable san_page : bytes;
  cache_pn : int array;       (* direct-mapped cache: page numbers ... *)
  cache_page : bytes array;   (* ... and their backing stores *)
}

(* 128 entries: each array stays a minor-heap allocation (at most 256
   words), as does the page table's initial bucket array, so creating a
   memory -- once per run -- never touches the major heap *)
let cache_bits = 7
let cache_size = 1 lsl cache_bits

(* Fibonacci hashing: the top [cache_bits] bits of the 63-bit product,
   so neighbouring pages spread over the whole cache *)
let cache_index pn = (pn * 0x4F1BBCDCBFA53E0B) lsr (63 - cache_bits)
[@@inline]

let invalidate_cache mem =
  mem.last_pn <- min_int;
  mem.last_page <- Bytes.empty;
  mem.san_pn <- min_int;
  mem.san_page <- Bytes.empty;
  Array.fill mem.cache_pn 0 cache_size min_int;
  Array.fill mem.cache_page 0 cache_size Bytes.empty

let create () =
  { pages = Hashtbl.create 64; resident_pages = 0; sanitizer_pages = 0;
    last_pn = min_int; last_page = Bytes.empty;
    san_pn = min_int; san_page = Bytes.empty;
    cache_pn = Array.make cache_size min_int;
    cache_page = Array.make cache_size Bytes.empty }

let page_slow mem a pn =
  let i = cache_index pn in
  let p =
    if Array.unsafe_get mem.cache_pn i = pn then
      Array.unsafe_get mem.cache_page i
    else begin
      let p =
        match Hashtbl.find_opt mem.pages pn with
        | Some p -> p
        | None ->
          let p = Bytes.make Layout46.page_size '\000' in
          Hashtbl.replace mem.pages pn p;
          mem.resident_pages <- mem.resident_pages + 1;
          if a >= Layout46.shadow_base then
            mem.sanitizer_pages <- mem.sanitizer_pages + 1;
          p
      in
      Array.unsafe_set mem.cache_pn i pn;
      Array.unsafe_set mem.cache_page i p;
      p
    end
  in
  if a >= Layout46.shadow_base then begin
    mem.san_pn <- pn;
    mem.san_page <- p
  end
  else begin
    mem.last_pn <- pn;
    mem.last_page <- p
  end;
  p

let page mem a =
  let pn = Layout46.page_of a in
  if pn = mem.last_pn then mem.last_page
  else if pn = mem.san_pn then mem.san_page
  else page_slow mem a pn

(* The little-endian words of the simulated memory, read and written
   in place with the compiler's unaligned-access primitives (no bounds
   check, no allocation: the int32/int64 intermediates stay unboxed).
   The memory holds 63-bit words: an 8-byte store keeps only bits
   56..62 in byte 7, and an 8-byte load drops byte 7's top bit.  The
   2- and 4-byte forms are unsigned.  Callers guarantee
   [off + size <= Layout46.page_size]. *)
external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let get16 p off =
  if Sys.big_endian then bswap16 (get16u p off) else get16u p off
[@@inline]

let get32 p off =
  let v = get32u p off in
  Int32.to_int (if Sys.big_endian then bswap32 v else v) land 0xFFFF_FFFF
[@@inline]

let get_word p off =
  let v = get64u p off in
  Int64.to_int (if Sys.big_endian then bswap64 v else v)
[@@inline]

let set16 p off v =
  set16u p off (if Sys.big_endian then bswap16 v else v)
[@@inline]

let set32 p off v =
  let v = Int32.of_int v in
  set32u p off (if Sys.big_endian then bswap32 v else v)
[@@inline]

let set_word p off v =
  let v = Int64.logand (Int64.of_int v) Int64.max_int in
  set64u p off (if Sys.big_endian then bswap64 v else v)
[@@inline]

let load_byte mem a =
  Char.code (Bytes.get (page mem a) (a land (Layout46.page_size - 1)))

let store_byte mem a v =
  Bytes.set (page mem a) (a land (Layout46.page_size - 1))
    (Char.unsafe_chr (v land 0xff))

(* Little-endian load of [size] (1, 2, 4 or 8) bytes. *)
let load mem a size =
  let off = a land (Layout46.page_size - 1) in
  if off + size <= Layout46.page_size then begin
    let p = page mem a in
    match size with
    | 1 -> Char.code (Bytes.unsafe_get p off)
    | 2 -> get16 p off
    | 4 -> get32 p off
    | 8 -> get_word p off
    | _ ->
      let v = ref 0 in
      for k = size - 1 downto 0 do
        v := (!v lsl 8) lor Char.code (Bytes.get p (off + k))
      done;
      !v
  end
  else begin
    (* page-straddling access: byte by byte *)
    let v = ref 0 in
    for k = size - 1 downto 0 do
      v := (!v lsl 8) lor load_byte mem (a + k)
    done;
    !v
  end

let store mem a size v =
  let off = a land (Layout46.page_size - 1) in
  if off + size <= Layout46.page_size then begin
    let p = page mem a in
    match size with
    | 1 -> Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xff))
    | 2 -> set16 p off v
    | 4 -> set32 p off v
    | 8 -> set_word p off v
    | _ ->
      for k = 0 to size - 1 do
        store_byte mem (a + k) ((v lsr (8 * k)) land 0xff)
      done
  end
  else
    for k = 0 to size - 1 do
      store_byte mem (a + k) ((v lsr (8 * k)) land 0xff)
    done

(* Bulk operations used by the libc builtins.  All of them work in
   page-sized chunks (Bytes.blit/Bytes.fill per materialized page)
   rather than byte-at-a-time: a memcpy otherwise pays two page probes
   per byte, which dominates copy-heavy workloads on both backends.
   Chunking touches exactly the pages the byte loop would have, so
   residency accounting is unchanged. *)

let page_end_room a = Layout46.page_size - (a land (Layout46.page_size - 1))

let blit_from_bytes mem (src : bytes) (dst : int) (len : int) =
  let k = ref 0 in
  while !k < len do
    let a = dst + !k in
    let chunk = min (len - !k) (page_end_room a) in
    Bytes.blit src !k (page mem a) (a land (Layout46.page_size - 1)) chunk;
    k := !k + chunk
  done

let copy mem ~src ~dst ~len =
  (* memmove semantics: chunks advance away from the overlap (forward
     when dst precedes src, backward otherwise), and Bytes.blit is
     itself overlap-safe when a chunk's source and destination share a
     page *)
  if dst < src then begin
    let k = ref 0 in
    while !k < len do
      let s = src + !k and d = dst + !k in
      let chunk = min (len - !k) (min (page_end_room s) (page_end_room d)) in
      Bytes.blit (page mem s) (s land (Layout46.page_size - 1))
        (page mem d) (d land (Layout46.page_size - 1)) chunk;
      k := !k + chunk
    done
  end
  else if dst > src then begin
    let k = ref len in
    while !k > 0 do
      (* the chunk ends at offset !k; it may not extend below the start
         of either the source or destination page *)
      let s_end = src + !k and d_end = dst + !k in
      let room a = ((a - 1) land (Layout46.page_size - 1)) + 1 in
      let chunk = min !k (min (room s_end) (room d_end)) in
      let s = s_end - chunk and d = d_end - chunk in
      Bytes.blit (page mem s) (s land (Layout46.page_size - 1))
        (page mem d) (d land (Layout46.page_size - 1)) chunk;
      k := !k - chunk
    done
  end
  else begin
    (* degenerate self-copy: still materialize the pages the byte loop
       would have touched (residency is observable) *)
    let k = ref 0 in
    while !k < len do
      let a = dst + !k in
      let chunk = min (len - !k) (page_end_room a) in
      ignore (page mem a : bytes);
      k := !k + chunk
    done
  end

let fill mem ~dst ~len v =
  let c = Char.unsafe_chr (v land 0xff) in
  let k = ref 0 in
  while !k < len do
    let a = dst + !k in
    let chunk = min (len - !k) (page_end_room a) in
    Bytes.fill (page mem a) (a land (Layout46.page_size - 1)) chunk c;
    k := !k + chunk
  done

(* C-string helpers: read until NUL; bounded by [max] to avoid infinite
   scans over zero pages. *)
let strlen mem a =
  (* page-chunked NUL scan; equivalent to the byte loop: the length is
     returned iff the first NUL sits at an index <= the cap, and the
     trap fires otherwise *)
  let cap = 1 lsl 24 in
  let rec go k =
    let addr = a + k in
    let off = addr land (Layout46.page_size - 1) in
    let avail = Layout46.page_size - off in
    match Bytes.index_from_opt (page mem addr) off '\000' with
    | Some i ->
      let n = k + (i - off) in
      if n > cap then
        Report.trap ~addr:a Report.Segfault ~detail:"unterminated string"
      else n
    | None ->
      if k + avail > cap then
        Report.trap ~addr:a Report.Segfault ~detail:"unterminated string"
      else go (k + avail)
  in
  go 0

let read_len mem a n =
  if n <= 0 then ""
  else begin
    let out = Bytes.create n in
    let k = ref 0 in
    while !k < n do
      let addr = a + !k in
      let off = addr land (Layout46.page_size - 1) in
      let chunk = min (n - !k) (Layout46.page_size - off) in
      Bytes.blit (page mem addr) off out !k chunk;
      k := !k + chunk
    done;
    Bytes.unsafe_to_string out
  end

let read_string mem a = read_len mem a (strlen mem a)

let write_string mem a s =
  let n = String.length s in
  let k = ref 0 in
  while !k < n do
    let addr = a + !k in
    let off = addr land (Layout46.page_size - 1) in
    let chunk = min (n - !k) (Layout46.page_size - off) in
    Bytes.blit_string s !k (page mem addr) off chunk;
    k := !k + chunk
  done;
  store_byte mem (a + n) 0

let resident_bytes mem = mem.resident_pages * Layout46.page_size
let program_bytes mem =
  (mem.resident_pages - mem.sanitizer_pages) * Layout46.page_size
let sanitizer_bytes mem = mem.sanitizer_pages * Layout46.page_size
