(* cecsan_serve: sanitizer-as-a-service.

   A persistent daemon reading line-delimited JSON requests on stdin and
   writing one response line per request on stdout, in request order.
   Requests queue until a flush boundary -- a blank line, {"op":"flush"},
   a full high-water batch, or EOF -- then the whole group is scheduled
   onto the domain pool in batches (Serve.Engine.process) and answered
   in submission order.  {"op":"snapshot"} additionally emits the
   session aggregate (merged telemetry included); {"op":"shutdown"}
   answers and exits.

     dune exec bin/cecsan_serve.exe -- -j 4 <<'EOF'
     {"id": 1, "op": "analyze", "sanitizer": "cecsan",
      "source": "int main() { return 7; }"}
     {"id": 2, "op": "fuzz", "seed": 42, "inject": true}
     {"op": "snapshot"}
     {"op": "shutdown"}
     EOF

   The response stream, and the aggregate, are byte-identical at any -j
   and for any flush grouping: every answer derives only from the
   request itself, and aggregation is submission-ordered.

   Exit codes: 0 shutdown/EOF, 2 bad --batch, 124 any other usage
   error (the shared flags of Harness.Cli).  Malformed lines get an
   {"id": -1, ...} error response and the daemon keeps serving. *)

open Cmdliner

let batch =
  Arg.(value & opt int 16
       & info [ "batch" ] ~docv:"B"
           ~doc:"Consecutive requests executed per pool slot.")

let snapshot_json =
  Arg.(value & opt (some string) None
       & info [ "snapshot-json" ] ~docv:"FILE"
           ~doc:"On exit, write the session aggregate (counts + merged \
                 telemetry snapshot) to FILE as deterministic JSON.")

let emit value =
  print_string (Json.to_string Json.Spaced value);
  print_newline ();
  flush stdout

let error_response msg =
  Serve.Protocol.encode_response
    { Serve.Protocol.rs_id = -1; rs_ok = false; rs_outcome = "";
      rs_detected = false; rs_cycles = 0; rs_reports = 0;
      rs_error = "protocol: " ^ msg }

let serve jobs batch backend snapshot_json =
  if batch < 1 then begin
    Fmt.epr "--batch: expected >= 1@.";
    exit 2
  end;
  Harness.Pool.with_jobs jobs (fun pool ->
      let agg = ref Serve.Engine.empty_aggregate in
      let pending = ref [] in   (* newest first *)
      let pending_n = ref 0 in
      let high_water = batch * jobs in
      let flush () =
        if !pending_n > 0 then begin
          let reqs = List.rev !pending in
          pending := [];
          pending_n := 0;
          let rows = Serve.Engine.process ?pool ~batch ?backend reqs in
          List.iter
            (fun (r : Serve.Engine.row) ->
               emit (Serve.Protocol.encode_response r.Serve.Engine.r_response))
            rows;
          agg := Serve.Engine.aggregate_rows !agg rows
        end
      in
      let finish () =
        flush ();
        (match snapshot_json with
         | Some path ->
           Harness.Jsonio.write ~path
             (Json.to_string Json.Spaced (Serve.Engine.aggregate_json !agg)
              ^ "\n")
         | None -> ());
        exit 0
      in
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> finish ()
        | Some raw ->
          (match Serve.Protocol.decode_line raw with
           | Ok (Serve.Protocol.Request r) ->
             pending := r :: !pending;
             incr pending_n;
             if !pending_n >= high_water then flush ()
           | Ok Serve.Protocol.Flush -> flush ()
           | Ok Serve.Protocol.Snapshot ->
             flush ();
             emit
               (Json.Obj
                  [ ("op", Json.Str "snapshot");
                    ("aggregate", Serve.Engine.aggregate_json !agg) ])
           | Ok Serve.Protocol.Shutdown ->
             flush ();
             emit
               (Json.Obj
                  [ ("op", Json.Str "shutdown");
                    ("requests", Json.Int !agg.Serve.Engine.agg_requests) ]);
             finish ()
           | Error m -> emit (error_response m));
          loop ()
      in
      loop ())

let cmd =
  let doc = "batched sanitizer-analysis daemon over line-delimited JSON" in
  Cmd.v
    (Cmd.info "cecsan_serve" ~version:"1.0" ~doc)
    Term.(const serve
          $ Harness.Cli.jobs
              ~doc:"Schedule request batches on $(docv) domains.  \
                    Responses are bit-for-bit identical at any $(docv)."
          $ batch
          $ Harness.Cli.backend
              ~doc:"Default backend for requests that carry none: \
                    $(b,interp) or $(b,jit).  Threaded explicitly into \
                    every run; per-request backends win."
          $ snapshot_json)

let () = Cmd.eval cmd |> exit
