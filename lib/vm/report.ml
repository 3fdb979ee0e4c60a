(* Bug reports and hardware-level traps.

   A [Report] is what a *sanitizer* produces when one of its checks
   fires.  A [Trap] is what the simulated hardware/libc produces on its
   own (segfault on an unmapped address, glibc heap-corruption abort,
   stack exhaustion): a run can end in a trap even without any sanitizer,
   which is exactly the difference between "the bug crashed the process"
   and "the bug was detected and diagnosed". *)

type bug_kind =
  | Oob_read
  | Oob_write
  | Use_after_free
  | Double_free
  | Invalid_free
  | Sub_object_overflow   (* intra-object: only CECSan-class tools *)
  | Other of string

type t = {
  r_kind : bug_kind;
  r_addr : int;            (* faulting address (stripped) *)
  r_site : int;            (* instrumentation site id, -1 if unknown *)
  r_by : string;           (* reporting sanitizer *)
  r_detail : string;
}

type trap_kind =
  | Segfault               (* unmapped or wild address *)
  | Null_deref
  | Stack_exhausted
  | Heap_corruption        (* glibc-style abort in the default allocator *)
  | Div_by_zero
  | Out_of_cycles          (* budget exceeded: treated as a hang *)
  | Unresolved_external of string
  | Out_of_frame of { func : string; reg : int; nregs : int }
  | Bad_slot of { func : string; slot : int; nslots : int }
  | Bad_target of { func : string; target : int; nblocks : int }

type trap = { t_kind : trap_kind; t_addr : int; t_detail : string }

exception Bug of t
exception Trap of trap

let trap ?(addr = 0) ?(detail = "") kind =
  raise (Trap { t_kind = kind; t_addr = addr; t_detail = detail })

(* --- the per-run diagnostic sink ----------------------------------------

   [Halt] is the historical behavior: the first finding raises and the
   run ends.  [Recover] is the production-deployment mode (ASan's
   halt_on_error=0): a failed check records a structured report and the
   caller repairs the operation (strip and proceed, no-op the free) so
   execution continues.  Reports are deduplicated by kind+address+site,
   hard-capped at [max_reports], and every submission that is not
   recorded bumps the overflow counter. *)

type policy = Halt | Recover of { max_reports : int }

type sink = {
  mutable policy : policy;
  mutable recorded_rev : t list;        (* newest first *)
  seen : (string, unit) Hashtbl.t;      (* dedup keys *)
  mutable n_recorded : int;
  mutable suppressed : int;             (* deduped or over the cap *)
}

let default_max_reports = 64

let make_sink ?(policy = Halt) () =
  { policy; recorded_rev = []; seen = Hashtbl.create 16; n_recorded = 0;
    suppressed = 0 }

let sink_reports s = List.rev s.recorded_rev
let sink_recorded s = s.n_recorded
let sink_suppressed s = s.suppressed

let kind_to_string = function
  | Oob_read -> "out-of-bounds-read"
  | Oob_write -> "out-of-bounds-write"
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Invalid_free -> "invalid-free"
  | Sub_object_overflow -> "sub-object-overflow"
  | Other s -> s

(* Submits a finding to the sink.  Under [Halt] this raises [Bug]
   exactly like [bug]; under [Recover] it records (or suppresses) and
   returns, and the caller is responsible for continuing safely. *)
let submit sink ?(addr = 0) ?(site = -1) ?(detail = "") ~by kind =
  let r =
    { r_kind = kind; r_addr = addr; r_site = site; r_by = by;
      r_detail = detail }
  in
  match sink.policy with
  | Halt -> raise (Bug r)
  | Recover { max_reports } ->
    let key =
      Printf.sprintf "%s|%x|%d" (kind_to_string kind) addr site
    in
    if Hashtbl.mem sink.seen key then
      sink.suppressed <- sink.suppressed + 1
    else begin
      Hashtbl.replace sink.seen key ();
      if sink.n_recorded >= max_reports then
        sink.suppressed <- sink.suppressed + 1
      else begin
        sink.recorded_rev <- r :: sink.recorded_rev;
        sink.n_recorded <- sink.n_recorded + 1
      end
    end

let trap_kind_to_string = function
  | Segfault -> "SIGSEGV"
  | Null_deref -> "SIGSEGV (null dereference)"
  | Stack_exhausted -> "stack exhausted"
  | Heap_corruption -> "glibc abort (heap corruption)"
  | Div_by_zero -> "SIGFPE"
  | Out_of_cycles -> "cycle budget exceeded"
  | Unresolved_external f -> "unresolved external " ^ f
  | Out_of_frame { func; reg; nregs } ->
    Printf.sprintf "register r%d outside the %d-register frame of %s" reg
      nregs func
  | Bad_slot { func; slot; nslots } ->
    Printf.sprintf "slot s%d outside the %d-slot frame of %s" slot nslots func
  | Bad_target { func; target; nblocks } ->
    Printf.sprintf "branch target b%d outside the %d-block body of %s" target
      nblocks func

let pp fmt r =
  Fmt.pf fmt "%s: %s at 0x%x%s" r.r_by (kind_to_string r.r_kind) r.r_addr
    (if String.equal r.r_detail "" then "" else " (" ^ r.r_detail ^ ")")

let pp_trap fmt t =
  Fmt.pf fmt "%s at 0x%x%s" (trap_kind_to_string t.t_kind) t.t_addr
    (if String.equal t.t_detail "" then "" else " (" ^ t.t_detail ^ ")")
