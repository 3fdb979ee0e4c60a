(** Bug reports (produced by sanitizers) and hardware/libc-level traps
    (produced by the simulated machine itself).  The distinction carries
    the evaluation semantics: a run that merely crashes has NOT been
    "detected" by a sanitizer. *)

type bug_kind =
  | Oob_read
  | Oob_write
  | Use_after_free
  | Double_free
  | Invalid_free
  | Sub_object_overflow
  | Other of string

type t = {
  r_kind : bug_kind;
  r_addr : int;     (** faulting address, stripped *)
  r_site : int;     (** instrumentation site id, -1 if unknown *)
  r_by : string;    (** reporting sanitizer *)
  r_detail : string;
}

type trap_kind =
  | Segfault
  | Null_deref
  | Stack_exhausted
  | Heap_corruption   (** glibc-style allocator abort *)
  | Div_by_zero
  | Out_of_cycles
  | Unresolved_external of string
  | Out_of_frame of { func : string; reg : int; nregs : int }
      (** malformed code: [func] names register [reg] outside its
          [nregs]-register frame; the module is rejected before it
          runs, as for the two below *)
  | Bad_slot of { func : string; slot : int; nslots : int }
      (** [func] names slot [slot] outside its [nslots] slots *)
  | Bad_target of { func : string; target : int; nblocks : int }
      (** [func] branches to [target] outside its [nblocks] blocks *)

type trap = { t_kind : trap_kind; t_addr : int; t_detail : string }

exception Bug of t
exception Trap of trap

val trap : ?addr:int -> ?detail:string -> trap_kind -> 'a
(** Raises [Trap]. *)

(** {1 The per-run diagnostic sink}

    [Halt] reproduces the historical raise-on-first-finding behavior and
    is the default.  [Recover] records findings (deduplicated by
    kind+address+site, capped at [max_reports]) and returns to the
    caller, which must repair the failed operation and continue — the
    moral equivalent of ASan's [halt_on_error=0]. *)

type policy = Halt | Recover of { max_reports : int }

type sink = {
  mutable policy : policy;
  mutable recorded_rev : t list;   (** newest first; use [sink_reports] *)
  seen : (string, unit) Hashtbl.t;
  mutable n_recorded : int;
  mutable suppressed : int;        (** deduplicated or over the cap *)
}

val default_max_reports : int

val make_sink : ?policy:policy -> unit -> sink

val submit : sink -> ?addr:int -> ?site:int -> ?detail:string ->
  by:string -> bug_kind -> unit
(** Under [Halt]: raises [Bug].  Under [Recover]: records or suppresses
    the finding and returns. *)

val sink_reports : sink -> t list
(** Recorded reports in submission order. *)

val sink_recorded : sink -> int
val sink_suppressed : sink -> int

val kind_to_string : bug_kind -> string
val trap_kind_to_string : trap_kind -> string
val pp : Format.formatter -> t -> unit
val pp_trap : Format.formatter -> trap -> unit
