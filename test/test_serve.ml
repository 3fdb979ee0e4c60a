(* The sanitizer-as-a-service stack: wire protocol codecs, the batched
   engine's determinism contract (any -j, any batch size, byte-identical
   rows and aggregates), compile_cached under server-shaped load, and
   the load simulator's reproducibility. *)

let ok_or_fail = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected decode error: %s" m

(* --- protocol -------------------------------------------------------------- *)

let spaced = Json.to_string Json.Spaced

(* Byte-level mutants in [Fuzz.Mutate]'s style: flip, insert, delete or
   duplicate one byte, positions and values drawn from a seeded tape.
   Inserted bytes favour the JSON punctuation the parser branches on. *)
let mutate_bytes rng s =
  let n = String.length s in
  let draw = Fuzz.Tape.draw rng in
  let byte () =
    let punct = "[]{}:,\"\\u0123456789-ntf e" in
    if Fuzz.Tape.bool rng then punct.[draw (String.length punct)]
    else Char.chr (draw 256)
  in
  let cut i = (String.sub s 0 i, String.sub s i (n - i)) in
  match draw 4 with
  | 0 when n > 0 ->
    let b = Bytes.of_string s and i = draw n in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl draw 8)));
    Bytes.to_string b
  | 1 ->
    let l, r = cut (draw (n + 1)) in
    l ^ String.make 1 (byte ()) ^ r
  | 2 when n > 0 ->
    let i = draw n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 3 when n > 0 ->
    let l, r = cut (draw n) in
    l ^ String.make 1 r.[0] ^ r
  | _ -> s

(* [count] mutants per valid input, each 1-4 stacked byte mutations;
   returns how many still parsed, so the caller can check the property
   was not vacuous. *)
let mutants ~seed ~count inputs (check : string -> bool) =
  let rng = Fuzz.Tape.fresh ~seed in
  List.fold_left
    (fun accepted input ->
       let rec go k accepted =
         if k = 0 then accepted
         else begin
           let m = ref input in
           for _ = 0 to Fuzz.Tape.draw rng 4 do
             m := mutate_bytes rng !m
           done;
           let ok =
             try check !m
             with e ->
               Alcotest.failf "raised %s on %S" (Printexc.to_string e) !m
           in
           go (k - 1) (if ok then accepted + 1 else accepted)
         end
       in
       go count accepted)
    0 inputs

let protocol_tests =
  [
    Alcotest.test_case "value printer/parser roundtrip" `Quick (fun () ->
        let v =
          Json.(
            Obj
              [ ("a", Int (-3));
                ("b", Str "line\nbreak \"quoted\" back\\slash\ttab");
                ("c", List [ Null; Bool true; Bool false; Int 0 ]);
                ("d", Obj []); ("e", List []) ])
        in
        List.iter
          (fun layout ->
             let s = Json.to_string layout v in
             (match Json.parse s with
              | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
              | Error m -> Alcotest.failf "parse failed: %s" m);
             (* printing is deterministic *)
             Alcotest.(check string) "stable bytes" s
               (Json.to_string layout v))
          [ Json.Compact; Json.Spaced ];
        Alcotest.(check string) "compact separators"
          "{\"c\":[null,true],\"d\":{}}"
          Json.(to_string Compact
                  (Obj [ ("c", List [ Null; Bool true ]); ("d", Obj []) ]));
        Alcotest.(check string) "spaced separators"
          "{\"c\": [null, true], \"d\": {}}"
          (spaced
             Json.(Obj [ ("c", List [ Null; Bool true ]); ("d", Obj []) ])));
    Alcotest.test_case "parser rejects floats and trailing garbage"
      `Quick
      (fun () ->
         List.iter
           (fun s ->
              match Json.parse s with
              | Ok _ -> Alcotest.failf "accepted %S" s
              | Error _ -> ())
           [ "1.5"; "{\"a\": 2e3}"; "{} trailing"; "{\"a\":}"; "[1,]";
             "\"unterminated"; "nul";
             (* nesting far past Json.max_depth: an error, not a
                stack overflow *)
             String.make 100_000 '[' ^ String.make 100_000 ']';
             (* \u takes exactly four hex digits *)
             "{\"id\": 7, \"op\": \"analyze\", \"source\": \
              \"int main() { return \\u0_4a; }\", \"sanitizer\": \
              \"cecsan\"}";
             (* a duplicate key is not "first (or last) one wins" *)
             "{\"id\": 1, \"id\": 2, \"op\": \"analyze\", \"source\": \
              \"int main() { return 0; }\", \"sanitizer\": \"cecsan\"}" ]);
    Alcotest.test_case "nesting bound, hex escapes, many distinct keys"
      `Quick
      (fun () ->
         let nest d = String.make d '[' ^ String.make d ']' in
         Alcotest.(check bool) "max_depth levels accepted" true
           (Result.is_ok (Json.parse (nest Json.max_depth)));
         Alcotest.(check bool) "one more rejected" true
           (Result.is_error (Json.parse (nest (Json.max_depth + 1))));
         Alcotest.(check bool) "\\u004A is J" true
           (Json.parse "\"\\u004A\"" = Ok (Json.Str "J"));
         let keys =
           List.init 100_000 (fun i -> (string_of_int i, Json.Int i))
         in
         Alcotest.(check bool) "100k distinct keys accepted" true
           (Json.parse (spaced (Json.Obj keys)) = Ok (Json.Obj keys));
         Alcotest.(check bool) "100k keys, one duplicate, rejected" true
           (Result.is_error
              (Json.parse (spaced (Json.Obj (("7", Json.Null) :: keys))))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"string escaping roundtrips any bytes"
         ~count:300 QCheck.string
         (fun s -> Json.parse (spaced (Json.Str s)) = Ok (Json.Str s)));
    Alcotest.test_case "byte mutants parse to a fixed point or fail"
      `Quick
      (fun () ->
         let lines =
           List.map
             (fun r -> spaced (Serve.Protocol.encode_request r))
             (Serve.Sim.gen_requests ~seed:0x5EED 60)
         in
         let accepted =
           mutants ~seed:11 ~count:25 lines (fun m ->
               ignore (Serve.Protocol.decode_line m);
               match Json.parse m with
               | Error _ -> false
               | Ok v ->
                 List.iter
                   (fun layout ->
                      let p = Json.to_string layout v in
                      if Json.parse p <> Ok v then
                        Alcotest.failf "%S reprinted as %S does not \
                                        parse back" m p)
                   [ Json.Compact; Json.Spaced ];
                 true)
         in
         if accepted = 0 then Alcotest.fail "no request mutant parsed";
         let snap =
           Fuzz.Campaign.telemetry
             (Fuzz.Campaign.run ~seed:0x5EED ~n:8 ~max_shrink:0 ())
         in
         let accepted =
           mutants ~seed:12 ~count:1500
             [ Telemetry.Snapshot.to_json snap ]
             (fun m ->
                ignore (Json.parse m);
                match Telemetry.Snapshot.of_json m with
                | None -> false
                | Some s ->
                  let p = Telemetry.Snapshot.to_json s in
                  if Telemetry.Snapshot.of_json p <> Some s then
                    Alcotest.failf "snapshot %S reprinted as %S does not \
                                    read back" m p;
                  true)
         in
         if accepted = 0 then Alcotest.fail "no snapshot mutant read back");
    Alcotest.test_case "request codec roundtrips every op" `Quick
      (fun () ->
         List.iter
           (fun (r : Serve.Protocol.request) ->
              let s = spaced (Serve.Protocol.encode_request r) in
              let v' = ok_or_fail (Json.parse s) in
              let r' = ok_or_fail (Serve.Protocol.decode_request v') in
              Alcotest.(check bool) "roundtrip" true (r = r'))
           [ { Serve.Protocol.id = 1;
               op =
                 Serve.Protocol.Analyze
                   { source = "int main() { return 0; }";
                     sanitizer = "cecsan"; optimize = true };
               backend = None };
             { Serve.Protocol.id = 2;
               op = Serve.Protocol.Fuzz { fz_seed = 7; inject = true };
               backend = Some Vm.Machine.Jit };
             { Serve.Protocol.id = 3;
               op =
                 Serve.Protocol.Bench
                   { kernel = "429.mcf"; sanitizer = "none" };
               backend = Some Vm.Machine.Interp } ]);
    Alcotest.test_case "response codec roundtrips" `Quick (fun () ->
        let r =
          { Serve.Protocol.rs_id = 9; rs_ok = false; rs_outcome = "";
            rs_detected = false; rs_cycles = 0; rs_reports = 0;
            rs_error = "unsupported: wchar_t" }
        in
        let s = spaced (Serve.Protocol.encode_response r) in
        let r' =
          ok_or_fail
            (Serve.Protocol.decode_response (ok_or_fail (Json.parse s)))
        in
        Alcotest.(check bool) "roundtrip" true (r = r'));
    (* Formats that outlive a process: serve clients and checkpoint
       resume depend on these exact bytes, so changing one is a schema
       change, not a refactor. *)
    Alcotest.test_case "response bytes pinned" `Quick (fun () ->
        let r =
          { Serve.Protocol.rs_id = 42; rs_ok = false; rs_outcome = "";
            rs_detected = false; rs_cycles = 0; rs_reports = 0;
            rs_error = "parse: unexpected \"}\"\tat line 1\n" }
        in
        Alcotest.(check string) "error response"
          "{\"id\": 42, \"status\": \"error\", \"outcome\": \"\", \
           \"detected\": false, \"cycles\": 0, \"reports\": 0, \"error\": \
           \"parse: unexpected \\\"}\\\"\\tat line 1\\n\"}"
          (spaced (Serve.Protocol.encode_response r)));
    Alcotest.test_case "snapshot bytes pinned" `Quick (fun () ->
        let open Telemetry in
        let s =
          { Snapshot.sites =
              [ { Snapshot.s_site = 3; s_executed = 12; s_elided = 0;
                  s_covered = 1 };
                { Snapshot.s_site = 17; s_executed = 0; s_elided = 4;
                  s_covered = 0 } ];
            counters = [ ("alloc.calls", 5); ("odd\"key\\n", -2) ];
            gauges = [ ("alloc.peak", 4096) ];
            events =
              [ { ev_kind = Alloc; ev_a = 65536; ev_b = 16 };
                { ev_kind = Free; ev_a = 65536; ev_b = 0 };
                { ev_kind = Check_fail; ev_a = 3; ev_b = 65552 };
                { ev_kind = Strip; ev_a = 65536; ev_b = 7 } ];
            dropped = 2 }
        in
        let json = Snapshot.to_json s in
        Alcotest.(check string) "snapshot JSON"
          "{\"sites\":[{\"site\":3,\"executed\":12,\"elided\":0,\
           \"covered\":1},{\"site\":17,\"executed\":0,\"elided\":4,\
           \"covered\":0}],\"counters\":{\"alloc.calls\":5,\
           \"odd\\\"key\\\\n\":-2},\"gauges\":{\"alloc.peak\":4096},\
           \"dropped\":2,\"events\":[{\"kind\":\"alloc\",\"a\":65536,\
           \"b\":16},{\"kind\":\"free\",\"a\":65536,\"b\":0},\
           {\"kind\":\"check-fail\",\"a\":3,\"b\":65552},\
           {\"kind\":\"strip\",\"a\":65536,\"b\":7}]}"
          json;
        Alcotest.(check bool) "reads back" true
          (Snapshot.of_json json = Some s);
        Alcotest.(check bool) "whitespace between tokens is accepted" true
          (Snapshot.of_json (spaced (Snapshot.to_value s)) = Some s));
    Alcotest.test_case "line framing: controls, blanks, requests" `Quick
      (fun () ->
         (match Serve.Protocol.decode_line "" with
          | Ok Serve.Protocol.Flush -> ()
          | _ -> Alcotest.fail "blank line should be Flush");
         (match Serve.Protocol.decode_line "{\"op\": \"snapshot\"}" with
          | Ok Serve.Protocol.Snapshot -> ()
          | _ -> Alcotest.fail "snapshot control");
         (match Serve.Protocol.decode_line "{\"op\": \"shutdown\"}" with
          | Ok Serve.Protocol.Shutdown -> ()
          | _ -> Alcotest.fail "shutdown control");
         (match
            Serve.Protocol.decode_line
              "{\"id\": 4, \"op\": \"fuzz\", \"seed\": 11}"
          with
          | Ok (Serve.Protocol.Request
                  { id = 4; op = Serve.Protocol.Fuzz
                        { fz_seed = 11; inject = false }; backend = None })
            -> ()
          | _ -> Alcotest.fail "request line");
         match Serve.Protocol.decode_line "{\"op\": \"analyze\"}" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "analyze without fields should fail");
  ]

(* --- engine ---------------------------------------------------------------- *)

let analyze ?backend ?(sanitizer = "cecsan") source : Serve.Engine.row =
  Serve.Engine.execute
    { Serve.Protocol.id = 0;
      op =
        Serve.Protocol.Analyze { source; sanitizer; optimize = true };
      backend }

let engine_tests =
  [
    Alcotest.test_case "analyze: clean program exits ok" `Quick (fun () ->
        let r =
          analyze
            "int main() { int s = 0; for (int i = 0; i < 8; i++) s += i; \
             return s & 255; }"
        in
        Alcotest.(check bool) "ok" true r.r_response.Serve.Protocol.rs_ok;
        Alcotest.(check bool) "not detected" false
          r.r_response.Serve.Protocol.rs_detected;
        Alcotest.(check bool) "cycles counted" true (r.r_cycles > 0));
    Alcotest.test_case "analyze: heap overflow is detected" `Quick
      (fun () ->
         let r =
           analyze
             "int main() { int *p = (int*)malloc(16); p[5] = 1; \
              return 0; }"
         in
         Alcotest.(check bool) "ok" true r.r_response.Serve.Protocol.rs_ok;
         Alcotest.(check bool) "detected" true
           r.r_response.Serve.Protocol.rs_detected);
    Alcotest.test_case "errors become responses, not exceptions" `Quick
      (fun () ->
         let check_prefix prefix (r : Serve.Engine.row) =
           Alcotest.(check bool) "not ok" false
             r.r_response.Serve.Protocol.rs_ok;
           let e = r.r_response.Serve.Protocol.rs_error in
           if not (String.length e >= String.length prefix
                   && String.equal (String.sub e 0 (String.length prefix))
                        prefix)
           then Alcotest.failf "error %S lacks prefix %S" e prefix
         in
         check_prefix "unknown-sanitizer:"
           (analyze ~sanitizer:"nope" "int main() { return 0; }");
         (* the front end funnels parser errors through Sema.Error too *)
         check_prefix "sema:" (analyze "int main( {");
         check_prefix "sema:" (analyze "int main() { return x; }");
         check_prefix "unknown-kernel:"
           (Serve.Engine.execute
              { Serve.Protocol.id = 0;
                op =
                  Serve.Protocol.Bench
                    { kernel = "no-such-kernel"; sanitizer = "cecsan" };
                backend = None }));
    Alcotest.test_case "per-request backend wins over engine default"
      `Quick
      (fun () ->
         let src = "int main() { return 7; }" in
         let a = analyze ~backend:Vm.Machine.Jit src in
         let b = analyze src in
         (* backend-invariance: identical response either way *)
         Alcotest.(check bool) "same response" true
           (a.r_response = b.r_response));
    Alcotest.test_case "process: rows identical at any batch size" `Quick
      (fun () ->
         let reqs = Serve.Sim.gen_requests ~seed:0xA11CE 24 in
         let by_batch b = Serve.Engine.process ~batch:b reqs in
         let r1 = by_batch 1 in
         Alcotest.(check bool) "batch 5" true (r1 = by_batch 5);
         Alcotest.(check bool) "batch 64" true (r1 = by_batch 64));
    Alcotest.test_case "process: rows identical at -j 4" `Quick (fun () ->
        let reqs = Serve.Sim.gen_requests ~seed:0xA11CE 24 in
        let seq = Serve.Engine.process ~batch:4 reqs in
        let par =
          Harness.Pool.with_pool ~jobs:4 (fun p ->
              Serve.Engine.process ~pool:p ~batch:4 reqs)
        in
        Alcotest.(check bool) "identical rows" true (seq = par));
    Alcotest.test_case "aggregate folds in submission order" `Quick
      (fun () ->
         let reqs = Serve.Sim.gen_requests ~seed:3 12 in
         let rows = Serve.Engine.process ~batch:3 reqs in
         let agg =
           Serve.Engine.aggregate_rows Serve.Engine.empty_aggregate rows
         in
         Alcotest.(check int) "requests" 12 agg.Serve.Engine.agg_requests;
         Alcotest.(check int) "ok+errors" 12
           (agg.Serve.Engine.agg_ok + agg.Serve.Engine.agg_errors);
         let json =
           spaced (Serve.Engine.aggregate_json agg)
         in
         let par_rows =
           Harness.Pool.with_pool ~jobs:3 (fun p ->
               Serve.Engine.process ~pool:p ~batch:3 reqs)
         in
         let par_json =
           spaced
             (Serve.Engine.aggregate_json
                (Serve.Engine.aggregate_rows Serve.Engine.empty_aggregate
                   par_rows))
         in
         Alcotest.(check string) "aggregate bytes identical across -j"
           json par_json);
    Alcotest.test_case "malformed MiniC answers sema:" `Quick (fun () ->
        (* a [struct] at the end of input and a [sizeof] of an undefined
           struct are front-end errors, not internal ones *)
        List.iter
          (fun src ->
             let r = analyze src in
             let e = r.r_response.Serve.Protocol.rs_error in
             if not (String.starts_with ~prefix:"sema:" e) then
               Alcotest.failf "%S answered %S" src e)
          [ "int x; struct"; "int main(){ return sizeof(struct Q); }" ]);
  ]

(* --- compile_cached under server-shaped load ------------------------------- *)

let cache_tests =
  [
    Alcotest.test_case
      "concurrent mixed optimize flags match sequential compiles" `Quick
      (fun () ->
         Sanitizer.Driver.clear_compile_cache ();
         let sources =
           List.init 8 (fun i ->
               Printf.sprintf
                 "int main() { int a[%d]; for (int i = 0; i < %d; i++) \
                  a[i] = i; return a[%d] & 255; }"
                 (4 + i) (4 + i) (3 + i))
         in
         (* every (source, optimize) pair, shuffled across workers *)
         let grid =
           List.concat_map
             (fun s -> [ (s, true); (s, false); (s, true) ])
             sources
         in
         let sizes =
           List.map
             (fun (s, o) ->
                Tir.Ir.module_size
                  (Sanitizer.Driver.compile_cached ~optimize:o s))
             grid
         in
         let par_sizes =
           Harness.Pool.with_pool ~jobs:4 (fun p ->
               Harness.Pool.map p
                 (fun (s, o) ->
                    Tir.Ir.module_size
                      (Sanitizer.Driver.compile_cached ~optimize:o s))
                 grid)
         in
         Alcotest.(check (list int)) "sizes identical" sizes par_sizes);
    Alcotest.test_case "clear_compile_cache mid-campaign is invisible"
      `Quick
      (fun () ->
         let reqs = Serve.Sim.gen_requests ~seed:0xC1EA2 16 in
         let uninterrupted = Serve.Engine.process ~batch:4 reqs in
         let front = List.filteri (fun i _ -> i < 8) reqs in
         let back = List.filteri (fun i _ -> i >= 8) reqs in
         let a = Serve.Engine.process ~batch:4 front in
         Sanitizer.Driver.clear_compile_cache ();
         let b = Serve.Engine.process ~batch:4 back in
         Alcotest.(check bool) "responses unchanged" true
           (uninterrupted = a @ b));
    Alcotest.test_case "fuel burn is cache-state independent" `Quick
      (fun () ->
         let src =
           "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; \
            return s & 255; }"
         in
         Sanitizer.Driver.clear_compile_cache ();
         let cold = Tir.Fuel.make ~phase:"serve" ~budget:1_000_000 in
         ignore (Sanitizer.Driver.compile_cached ~optimize:true ~fuel:cold src);
         let warm = Tir.Fuel.make ~phase:"serve" ~budget:1_000_000 in
         ignore (Sanitizer.Driver.compile_cached ~optimize:true ~fuel:warm src);
         Alcotest.(check bool) "cold burned something" true
           (Tir.Fuel.remaining cold < 1_000_000);
         Alcotest.(check int) "hit burns exactly what the miss burned"
           (Tir.Fuel.remaining cold) (Tir.Fuel.remaining warm));
  ]

(* --- load simulator -------------------------------------------------------- *)

let sim_tests =
  [
    Alcotest.test_case "request mix is deterministic" `Quick (fun () ->
        let a = Serve.Sim.gen_requests ~seed:0x5EED 32 in
        let b = Serve.Sim.gen_requests ~seed:0x5EED 32 in
        Alcotest.(check bool) "identical" true (a = b);
        let c = Serve.Sim.gen_requests ~seed:0x5EEE 32 in
        Alcotest.(check bool) "seed-sensitive" true (a <> c));
    Alcotest.test_case "report JSON byte-identical at -j 3" `Quick
      (fun () ->
         let cfg = Serve.Sim.default_cfg ~seed:0x5EED ~requests:60 in
         let seq = Serve.Sim.to_json (Serve.Sim.run cfg) in
         let par =
           Harness.Pool.with_pool ~jobs:3 (fun p ->
               Serve.Sim.to_json (Serve.Sim.run ~pool:p cfg))
         in
         Alcotest.(check string) "bytes" seq par);
    Alcotest.test_case "latency percentiles are ordered and positive"
      `Quick
      (fun () ->
         let cfg = Serve.Sim.default_cfg ~seed:1 ~requests:50 in
         let r = Serve.Sim.run cfg in
         let l = r.Serve.Sim.sr_latency in
         Alcotest.(check bool) "ordered" true
           (l.Serve.Sim.l_p50 <= l.Serve.Sim.l_p90
            && l.Serve.Sim.l_p90 <= l.Serve.Sim.l_p99
            && l.Serve.Sim.l_p99 <= l.Serve.Sim.l_p999
            && l.Serve.Sim.l_p999 <= l.Serve.Sim.l_max);
         Alcotest.(check bool) "positive" true (l.Serve.Sim.l_p50 >= 1);
         Alcotest.(check bool) "makespan covers service" true
           (r.Serve.Sim.sr_makespan >= l.Serve.Sim.l_max));
    Alcotest.test_case
      "simulated workers shape latency, real jobs never do" `Quick
      (fun () ->
         let base = Serve.Sim.default_cfg ~seed:2 ~requests:60 in
         let narrow =
           Serve.Sim.run { base with Serve.Sim.sc_workers = 1 }
         in
         let wide =
           Serve.Sim.run { base with Serve.Sim.sc_workers = 8 }
         in
         Alcotest.(check bool) "1 server queues at least as long" true
           (narrow.Serve.Sim.sr_latency.Serve.Sim.l_p99
            >= wide.Serve.Sim.sr_latency.Serve.Sim.l_p99));
    Alcotest.test_case "schema header and key fields present" `Quick
      (fun () ->
         let cfg = Serve.Sim.default_cfg ~seed:3 ~requests:20 in
         let json = Serve.Sim.to_json (Serve.Sim.run cfg) in
         let v = ok_or_fail (Json.parse json) in
         (match Json.member "schema" v with
          | Some (Json.Str "cecsan-bench-serve/1") -> ()
          | _ -> Alcotest.fail "schema field");
         List.iter
           (fun k ->
              if Json.member k v = None then
                Alcotest.failf "missing %S" k)
           [ "seed"; "requests"; "sim_workers"; "batch"; "aggregate";
             "latency_ticks"; "makespan_ticks"; "throughput_per_mticks" ]);
  ]

let () =
  Alcotest.run "serve"
    [
      "protocol", protocol_tests;
      "engine", engine_tests;
      "compile-cache", cache_tests;
      "sim", sim_tests;
    ]
