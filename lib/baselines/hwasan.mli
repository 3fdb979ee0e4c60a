(** HWASan: MTE-style memory tagging (8-bit tags, 16-byte granules) with
    top-byte-ignore for libc compatibility and read-side string
    interceptors only.

    Mechanistic misses (each pinned by a test): granule-padding
    overflows, sub-object overflows, write-side libc flaws, invalid
    frees (an interior pointer carries the object's own tag: 0% on
    CWE761), and UAF routed through uninstrumented libc. *)

val sanitizer : unit -> Sanitizer.Spec.t
