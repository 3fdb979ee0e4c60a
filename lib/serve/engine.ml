(* The service execution core.

   One request = one seeded, cost-model-deterministic Driver run, so a
   row's response, service cycles and telemetry depend only on the
   request itself -- which is what lets [process] batch chunks across
   pool domains and still promise byte-identical output at any -j.

   Every failure mode of the pipeline (sema error, lowering error,
   unsupported construct, verifier rejection, fuel exhaustion, unknown
   names) is caught here and turned into an error response: a malformed
   or hostile request costs its submitter an error line, never the
   daemon. *)

type row = {
  r_request : Protocol.request;
  r_response : Protocol.response;
  r_cycles : int;
  r_snapshot : Telemetry.Snapshot.t;
}

let analyze_budget = 50_000_000

let sanitizer_of_name (name : string) : Sanitizer.Spec.t option =
  match name with
  | "cecsan" -> Some (Cecsan.sanitizer ())
  | "none" -> Some Sanitizer.Spec.none
  | _ -> Fuzz.Oracle.baseline_of_name name

let kernel_of_name (name : string) : Workloads.Spec2006.t option =
  List.find_opt
    (fun (w : Workloads.Spec2006.t) ->
       String.equal w.Workloads.Spec2006.w_name name)
    (Workloads.Spec2006.all @ Workloads.Spec2017.all)

let outcome_string (o : Vm.Machine.outcome) : string =
  Format.asprintf "%a" Vm.Machine.pp_outcome o

(* Exception -> stable "class: detail" error string.  The class prefix
   is what tests and operators key on; the detail is best-effort. *)
let error_string = function
  | Minic.Sema.Error (m, line) ->
    Printf.sprintf "sema: %s (line %d)" m line
  | Tir.Lower.Error m -> "lower: " ^ m
  | Sanitizer.Spec.Unsupported m -> "unsupported: " ^ m
  | Sanitizer.Driver.Verifier_reject { tool; stage; _ } ->
    Printf.sprintf "verifier-reject: %s (%s)" tool stage
  | Tir.Fuel.Exhausted { phase; budget } ->
    Printf.sprintf "fuel: %s (budget %d)" phase budget
  | Failure m -> "failure: " ^ m
  | Invalid_argument m -> "invalid: " ^ m
  | e -> "exn: " ^ Printexc.to_string e

let ok_row (req : Protocol.request) (r : Sanitizer.Driver.run_result) : row =
  {
    r_request = req;
    r_response =
      {
        Protocol.rs_id = req.Protocol.id;
        rs_ok = true;
        rs_outcome = outcome_string r.Sanitizer.Driver.outcome;
        rs_detected = Vm.Machine.outcome_is_bug r.Sanitizer.Driver.outcome;
        rs_cycles = r.Sanitizer.Driver.cycles;
        rs_reports = List.length r.Sanitizer.Driver.reports;
        rs_error = "";
      };
    r_cycles = r.Sanitizer.Driver.cycles;
    r_snapshot = r.Sanitizer.Driver.snapshot;
  }

let error_row (req : Protocol.request) (msg : string) : row =
  {
    r_request = req;
    r_response =
      {
        Protocol.rs_id = req.Protocol.id;
        rs_ok = false;
        rs_outcome = "";
        rs_detected = false;
        rs_cycles = 0;
        rs_reports = 0;
        rs_error = msg;
      };
    r_cycles = 0;
    r_snapshot = Telemetry.Snapshot.empty;
  }

let execute ?backend (req : Protocol.request) : row =
  (* per-request backend wins; the engine default covers the rest *)
  let backend =
    match req.Protocol.backend with Some b -> Some b | None -> backend
  in
  match
    match req.Protocol.op with
    | Protocol.Analyze { source; sanitizer; optimize } ->
      (match sanitizer_of_name sanitizer with
       | None -> error_row req ("unknown-sanitizer: " ^ sanitizer)
       | Some san ->
         ok_row req
           (Sanitizer.Driver.run san ~externs:Fuzz.Oracle.externs
              ~budget:analyze_budget ?backend ~optimize source))
    | Protocol.Fuzz { fz_seed; inject } ->
      let p = Fuzz.Gen.generate ~inject (Fuzz.Tape.fresh ~seed:fz_seed) in
      ok_row req
        (Sanitizer.Driver.run (Cecsan.sanitizer ())
           ~externs:Fuzz.Oracle.externs ~budget:analyze_budget ?backend
           ~optimize:true p.Fuzz.Gen.src)
    | Protocol.Bench { kernel; sanitizer } ->
      (match (kernel_of_name kernel, sanitizer_of_name sanitizer) with
       | None, _ -> error_row req ("unknown-kernel: " ^ kernel)
       | _, None -> error_row req ("unknown-sanitizer: " ^ sanitizer)
       | Some w, Some san ->
         ok_row req
           (Sanitizer.Driver.run san ~budget:Harness.Overhead.default_budget
              ?backend w.Workloads.Spec2006.w_source))
  with
  | r -> r
  | exception e -> error_row req (error_string e)

(* Chunk the submission-order list into runs of [batch] consecutive
   requests.  Chunking preserves order, so concat of per-chunk results
   is the sequential result. *)
let chunk (batch : int) (xs : 'a list) : 'a list list =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = batch then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let process ?pool ?(batch = 16) ?backend (reqs : Protocol.request list) :
  row list =
  if batch < 1 then invalid_arg "Serve.Engine.process: batch < 1";
  Harness.Pool.maybe_map pool
    (List.map (execute ?backend))
    (chunk batch reqs)
  |> List.concat

(* --- session aggregate ----------------------------------------------------- *)

type aggregate = {
  agg_requests : int;
  agg_ok : int;
  agg_errors : int;
  agg_detected : int;
  agg_by_op : (string * int) list;
  agg_cycles : int;
  agg_snapshot : Telemetry.Snapshot.t;
}

let empty_aggregate =
  {
    agg_requests = 0;
    agg_ok = 0;
    agg_errors = 0;
    agg_detected = 0;
    agg_by_op = [];
    agg_cycles = 0;
    agg_snapshot = Telemetry.Snapshot.empty;
  }

let op_name = function
  | Protocol.Analyze _ -> "analyze"
  | Protocol.Fuzz _ -> "fuzz"
  | Protocol.Bench _ -> "bench"

let bump_assoc key xs =
  let found = ref false in
  let xs =
    List.map
      (fun (k, v) ->
         if String.equal k key then begin
           found := true;
           (k, v + 1)
         end
         else (k, v))
      xs
  in
  if !found then xs
  else List.sort (fun (a, _) (b, _) -> compare a b) ((key, 1) :: xs)

let absorb (a : aggregate) (r : row) : aggregate =
  {
    agg_requests = a.agg_requests + 1;
    agg_ok = a.agg_ok + (if r.r_response.Protocol.rs_ok then 1 else 0);
    agg_errors =
      a.agg_errors + (if r.r_response.Protocol.rs_ok then 0 else 1);
    agg_detected =
      a.agg_detected
      + (if r.r_response.Protocol.rs_detected then 1 else 0);
    agg_by_op = bump_assoc (op_name r.r_request.Protocol.op) a.agg_by_op;
    agg_cycles = a.agg_cycles + r.r_cycles;
    agg_snapshot = Telemetry.Snapshot.merge a.agg_snapshot r.r_snapshot;
  }

let aggregate_rows (a : aggregate) (rows : row list) : aggregate =
  List.fold_left absorb a rows

let aggregate_json (a : aggregate) : Json.t =
  Json.Obj
    [ ("requests", Json.Int a.agg_requests);
      ("ok", Json.Int a.agg_ok);
      ("errors", Json.Int a.agg_errors);
      ("detected", Json.Int a.agg_detected);
      ("by_op",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) a.agg_by_op));
      ("service_cycles", Json.Int a.agg_cycles);
      ("snapshot", Telemetry.Snapshot.to_value a.agg_snapshot) ]
