(* Mutable machine state shared by the interpreter, the libc builtins and
   the sanitizer runtimes. *)

type t = {
  mem : Memory.t;
  alloc : Alloc.t;
  input : Input.t;
  output : Buffer.t;
  mutable cycles : int;
  mutable cycle_budget : int;
  mutable sp : int;                    (* stack pointer, grows down *)
  mutable globals_end : int;           (* end of the globals region *)
  mutable rng : int;                   (* rand() state, seeded *)
  mutable heap_frees : int;            (* statistics *)
  mutable heap_allocs : int;
  (* effective-address mask: all-ones normally; HWASan sets it to model
     ARM top-byte-ignore so that tagged pointers translate transparently *)
  mutable addr_mask : int;
  (* the per-run diagnostic sink: Halt (raise, historical) or Recover *)
  sink : Report.sink;
  (* deterministic fault injector consulted by allocators and the
     metadata table; inert unless faults were requested.  Always a
     private clone of the injector passed to [create], so shared
     injector values never race or accumulate across runs *)
  fault : Fault.t;
  (* always-on runtime telemetry: per-check-site counters, named gauges
     (surfaced by the driver and --stats), event ring *)
  telem : Telemetry.t;
}

exception Exited of int

(* The one authoritative default cycle budget: the driver, the overhead
   harness and the CLI all inherit it instead of repeating the literal. *)
let default_budget = 2_000_000_000

let create ?(cycle_budget = default_budget) ?(seed = 0x5EED)
    ?(policy = Report.Halt) ?fault () =
  let mem = Memory.create () in
  {
    mem;
    alloc = Alloc.create mem;
    input = Input.create ();
    output = Buffer.create 256;
    cycles = 0;
    cycle_budget;
    sp = Layout46.stack_top;
    globals_end = Layout46.globals_base;
    rng = seed;
    heap_frees = 0;
    heap_allocs = 0;
    addr_mask = -1;
    sink = Report.make_sink ~policy ();
    fault = (match fault with Some f -> Fault.clone f | None -> Fault.none ());
    telem = Telemetry.create ();
  }

(* Submits a sanitizer finding through the run's sink.  Under [Halt]
   this raises [Report.Bug]; under [Recover] it records and returns,
   and the caller must repair the operation and continue. *)
let report st ?addr ?site ?detail ~by kind =
  Telemetry.record st.telem Telemetry.Check_fail
    (match site with Some s -> s | None -> -1)
    (match addr with Some a -> a | None -> 0);
  Report.submit st.sink ?addr ?site ?detail ~by kind

let set_stat st key v = Telemetry.set_gauge st.telem key v

let tick st c =
  st.cycles <- st.cycles + c;
  if st.cycles > st.cycle_budget then
    Report.trap Report.Out_of_cycles
      ~detail:(Printf.sprintf "budget %d" st.cycle_budget)

(* splitmix-style deterministic PRNG for rand() and sanitizer tag draws;
   constants truncated to OCaml's 63-bit int range *)
let next_rand st =
  let z = (st.rng + 0x1E3779B97F4A7C15) land max_int in
  st.rng <- z;
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
  (z lxor (z lsr 31)) land max_int

(* Validates that a *program* access ([addr], [size] bytes) falls in a
   mapped region.  Sanitizer areas are not legal program targets. *)
let check_mapped st addr size =
  let a = addr land st.addr_mask in
  let last = a + size - 1 in
  if a < Layout46.null_guard then
    Report.trap ~addr:a
      (if a >= 0 && a < Layout46.null_guard then Report.Null_deref
       else Report.Segfault)
  else if a >= Layout46.globals_base && last < st.globals_end then ()
  else if a >= Layout46.heap_base && last < st.alloc.Alloc.brk then ()
  (* the whole stack region stays mapped, like a real stack: accesses to
     retired frames (dangling stack pointers) do not segfault *)
  else if a >= Layout46.stack_limit && last < Layout46.stack_top then ()
  else Report.trap ~addr:a Report.Segfault

let effective st addr = addr land st.addr_mask
