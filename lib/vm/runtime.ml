(* The interface a sanitizer runtime presents to the VM.

   A sanitizer is a pair (instrumentation pass, runtime); the pass
   rewrites the IR inserting [Iintrin] calls, and this record supplies
   their implementations plus the runtime-level hooks:

   - [malloc]/[free_]: replace the default allocator (ASan does; CECSan
     pointedly does not);
   - [intercept]: checking wrappers around libc builtins.  A builtin with
     no interceptor runs raw -- which is precisely how overflows through
     functions like wcsncpy escape sanitizers that lack wide-char
     wrappers;
   - [tbi_bits]: bits of top-byte-ignore the runtime asks the hardware
     for (HWASan); addresses are masked accordingly before translation;
   - [checks]: the runtime's Algorithm 1 dereference checks, described
     so the jit can inline them (see [check] below). *)

type intrinsic = State.t -> int array -> int

(* [raw] runs the uninstrumented builtin; an interceptor may check
   arguments, call it, and post-process the result. *)
type interceptor = State.t -> raw:(int array -> int) -> int array -> int

(* An Algorithm 1 dereference check: the intrinsic takes (ptr, size,
   site), charges [ck_cost] cycles, and returns the stripped pointer.
   Its fast path is fixed by the VM: a nonzero tag whose metadata entry
   ([Layout46.meta_entry]) satisfies the fused compare
   ((raw - lo) lor (hi - (raw + size))) >= 0 passes with no other
   effect.  [ck_slow] is the runtime's own check minus its tick: entry
   0, chained objects and reporting all live there, and it must agree
   with the fast path wherever that passes.  [ck_intrinsic] is the
   closure registered for [ck_name] -- tick, then [ck_slow] -- so a slot
   still bound to it may run inline and one rebound to anything else
   may not. *)
type check = {
  ck_name : string;
  ck_cost : int;
  ck_slow : State.t -> int -> int -> int -> int;  (* ptr size site *)
  ck_intrinsic : intrinsic;
}

type t = {
  rt_name : string;
  intrinsics : (string, intrinsic) Hashtbl.t;
  malloc : (State.t -> int -> int) option;
  free_ : (State.t -> int -> unit) option;
  intercept : string -> interceptor option;
  (* size of a live block under this runtime's allocator (for realloc) *)
  usable_size : (State.t -> int -> int option) option;
  tbi_bits : int;
  (* runs once when the program ends, before the outcome is built, so a
     runtime can publish end-of-run state: CECSan sets its metadata-table
     gauges (entry-0 hits, chaining, exhaustion) here *)
  at_exit : State.t -> unit;
  mutable checks : check list;
}

let plain name = {
  rt_name = name;
  intrinsics = Hashtbl.create 4;
  malloc = None;
  free_ = None;
  intercept = (fun _ -> None);
  usable_size = None;
  tbi_bits = 0;
  at_exit = (fun _ -> ());
  checks = [];
}

(* The uninstrumented baseline: no checks at all. *)
let none = plain "none"

let register rt name fn = Hashtbl.replace rt.intrinsics name fn

let find_intrinsic rt name = Hashtbl.find_opt rt.intrinsics name

let register_check rt ~name ~cost slow =
  let fn st a =
    State.tick st cost;
    slow st a.(0) a.(1) a.(2)
  in
  register rt name fn;
  rt.checks <-
    { ck_name = name; ck_cost = cost; ck_slow = slow; ck_intrinsic = fn }
    :: rt.checks
