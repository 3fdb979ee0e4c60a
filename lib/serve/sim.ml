(* Deterministic load simulator (bench --serve-sim).

   The trick that makes latency reproducible at any -j: nothing in the
   queue model reads a real clock.  Arrival ticks come from a seeded
   tape, service ticks from each request's cost-model cycle count, and
   the queue itself is an integer fold over a fixed number of SIMULATED
   servers (sc_workers), chosen independently of how many real domains
   gathered the service times.  -j changes wall clock only. *)

type cfg = {
  sc_seed : int;
  sc_requests : int;
  sc_workers : int;
  sc_batch : int;
  sc_backend : Vm.Machine.backend option;
}

let default_cfg ~seed ~requests =
  {
    sc_seed = seed;
    sc_requests = requests;
    sc_workers = 4;
    sc_batch = 16;
    sc_backend = None;
  }

type latency = {
  l_p50 : int;
  l_p90 : int;
  l_p99 : int;
  l_p999 : int;
  l_max : int;
  l_mean : int;
}

type report = {
  sr_cfg : cfg;
  sr_aggregate : Engine.aggregate;
  sr_latency : latency;
  sr_makespan : int;
  sr_throughput : int;
}

(* --- synthetic request mix ------------------------------------------------- *)

let bench_kernels = [ "429.mcf"; "462.libquantum"; "470.lbm"; "619.lbm_s" ]
let bench_sans = [ "cecsan"; "asan--"; "none" ]
let analyze_sans = [ "cecsan"; "asan"; "hwasan"; "none" ]

let gen_request ~seed i : Protocol.request =
  let t = Fuzz.Tape.fresh ~seed:(Fuzz.Tape.mix seed i) in
  let backend =
    match Fuzz.Tape.draw t 3 with
    | 0 -> None
    | 1 -> Some Vm.Machine.Interp
    | _ -> Some Vm.Machine.Jit
  in
  let op =
    match Fuzz.Tape.draw t 64 with
    | 0 ->
      (* rare: a full SPEC-like kernel (the service's heavy tail) *)
      Protocol.Bench
        {
          kernel = Fuzz.Tape.pick t bench_kernels;
          sanitizer = Fuzz.Tape.pick t bench_sans;
        }
    | d when d <= 12 ->
      Protocol.Fuzz
        { fz_seed = Fuzz.Tape.draw t 1_000_000; inject = Fuzz.Tape.bool t }
    | _ ->
      let inject = Fuzz.Tape.bool t in
      let p = Fuzz.Gen.generate ~inject t in
      Protocol.Analyze
        {
          source = p.Fuzz.Gen.src;
          sanitizer = Fuzz.Tape.pick t analyze_sans;
          optimize = Fuzz.Tape.bool t;
        }
  in
  { Protocol.id = i; op; backend }

let gen_requests ~seed n : Protocol.request list =
  List.init n (gen_request ~seed)

(* --- the queue model ------------------------------------------------------- *)

(* Service time: cost-model cycles scaled down to ticks; error rows
   (cycles = 0) still occupy a server for one tick.  The scale is picked
   so the default mix keeps the 4 simulated servers near critical load
   (mean service ~= 40 ticks vs mean inter-arrival ~= 11 ticks): the
   tail percentiles then measure real queueing, not pure saturation. *)
let service_ticks (r : Engine.row) : int = 1 + (r.Engine.r_cycles / 10_000)

let arrival_ticks ~seed n : int list =
  let t = Fuzz.Tape.fresh ~seed:(Fuzz.Tape.mix seed 0x5E21E) in
  let clock = ref 0 in
  List.init n (fun _ ->
      clock := !clock + 1 + Fuzz.Tape.draw t 20;
      !clock)

(* FIFO over [workers] simulated servers: each request takes the
   earliest-free server (lowest index on ties).  Returns (latencies in
   submission order, makespan). *)
let simulate ~workers (arrivals : int list) (services : int list) :
  int list * int =
  if workers < 1 then invalid_arg "Serve.Sim.simulate: workers < 1";
  let free = Array.make workers 0 in
  let makespan = ref 0 in
  let latencies =
    List.map2
      (fun arrival service ->
         let best = ref 0 in
         Array.iteri (fun i t -> if t < free.(!best) then best := i) free;
         let start = max arrival free.(!best) in
         let finish = start + service in
         free.(!best) <- finish;
         if finish > !makespan then makespan := finish;
         finish - arrival)
      arrivals services
  in
  (latencies, !makespan)

let latency_of (xs : int list) : latency =
  {
    l_p50 = Harness.Stats.p50 xs;
    l_p90 = Harness.Stats.p90 xs;
    l_p99 = Harness.Stats.p99 xs;
    l_p999 = Harness.Stats.p999 xs;
    l_max = List.fold_left max 0 xs;
    l_mean =
      (match xs with
       | [] -> 0
       | _ -> List.fold_left ( + ) 0 xs / List.length xs);
  }

let run ?pool (cfg : cfg) : report =
  let reqs = gen_requests ~seed:cfg.sc_seed cfg.sc_requests in
  let rows =
    Engine.process ?pool ~batch:cfg.sc_batch ?backend:cfg.sc_backend reqs
  in
  let aggregate = Engine.aggregate_rows Engine.empty_aggregate rows in
  let arrivals = arrival_ticks ~seed:cfg.sc_seed cfg.sc_requests in
  let services = List.map service_ticks rows in
  let latencies, makespan =
    simulate ~workers:cfg.sc_workers arrivals services
  in
  {
    sr_cfg = cfg;
    sr_aggregate = aggregate;
    sr_latency = latency_of latencies;
    sr_makespan = makespan;
    sr_throughput =
      (if makespan = 0 then 0 else cfg.sc_requests * 1_000_000 / makespan);
  }

(* --- rendering / artifact -------------------------------------------------- *)

let render fmt (r : report) =
  let c = r.sr_cfg and a = r.sr_aggregate and l = r.sr_latency in
  Fmt.pf fmt
    "SERVE SIMULATION: %d requests [seed=0x%x, %d simulated workers, \
     batch %d]@."
    c.sc_requests c.sc_seed c.sc_workers c.sc_batch;
  Fmt.pf fmt "%s@." (String.make 72 '-');
  Fmt.pf fmt "  requests: %d ok, %d errors, %d detected@." a.Engine.agg_ok
    a.Engine.agg_errors a.Engine.agg_detected;
  List.iter
    (fun (op, n) -> Fmt.pf fmt "    %-8s %6d@." op n)
    a.Engine.agg_by_op;
  Fmt.pf fmt "  service:  %d total cost-model cycles@." a.Engine.agg_cycles;
  Fmt.pf fmt "  makespan: %d ticks  (throughput %d req / 1e6 ticks)@."
    r.sr_makespan r.sr_throughput;
  Fmt.pf fmt
    "  latency (ticks): p50 %d  p90 %d  p99 %d  p99.9 %d  max %d  mean %d@."
    l.l_p50 l.l_p90 l.l_p99 l.l_p999 l.l_max l.l_mean;
  Fmt.pf fmt "%s@." (String.make 72 '-')

let to_json (r : report) : string =
  let c = r.sr_cfg and l = r.sr_latency in
  Json.(
    to_string Spaced
      (Obj
         [ ("schema", Str "cecsan-bench-serve/1");
           ("seed", Int c.sc_seed);
           ("requests", Int c.sc_requests);
           ("sim_workers", Int c.sc_workers);
           ("batch", Int c.sc_batch);
           ("backend",
            Str
              (match c.sc_backend with
               | None -> "mixed"
               | Some b -> Protocol.backend_name b));
           ("aggregate", Engine.aggregate_json r.sr_aggregate);
           ("latency_ticks",
            Obj
              [ ("p50", Int l.l_p50);
                ("p90", Int l.l_p90);
                ("p99", Int l.l_p99);
                ("p999", Int l.l_p999);
                ("max", Int l.l_max);
                ("mean", Int l.l_mean) ]);
           ("makespan_ticks", Int r.sr_makespan);
           ("throughput_per_mticks", Int r.sr_throughput) ]))

let write_json ~path (r : report) =
  Harness.Jsonio.write ~path (to_json r ^ "\n")
