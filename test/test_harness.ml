(* Harness-level tests: statistics, table rendering, figure demos, and
   the CLI-visible behavior of the drivers. *)

let stats_tests =
  [
    Alcotest.test_case "average" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "mean" 20.0
          (Harness.Stats.average [ 10.0; 20.0; 30.0 ]);
        Alcotest.(check (float 1e-9)) "empty" 0.0
          (Harness.Stats.average []));
    Alcotest.test_case "geomean of equal overheads is that overhead" `Quick
      (fun () ->
         Alcotest.(check (float 1e-6)) "geo" 50.0
           (Harness.Stats.geomean_overhead [ 50.0; 50.0; 50.0 ]));
    Alcotest.test_case "geomean below average for skewed data" `Quick
      (fun () ->
         let xs = [ 10.0; 10.0; 10.0; 2000.0 ] in
         Alcotest.(check bool) "geo < avg" true
           (Harness.Stats.geomean_overhead xs < Harness.Stats.average xs));
    Alcotest.test_case "percent_overhead" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "2x = 100%" 100.0
          (Harness.Stats.percent_overhead ~base:100 ~measured:200);
        Alcotest.(check (float 1e-9)) "equal = 0%" 0.0
          (Harness.Stats.percent_overhead ~base:100 ~measured:100));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"geomean <= average (AM-GM)" ~count:200
         QCheck.(list_of_size (QCheck.Gen.int_range 1 10)
                   (QCheck.float_range 0.0 500.0))
         (fun xs ->
            Harness.Stats.geomean_overhead xs
            <= Harness.Stats.average xs +. 1e-6));
    Alcotest.test_case "percentiles of the empty list are 0" `Quick
      (fun () ->
         List.iter
           (fun f -> Alcotest.(check int) "empty" 0 (f []))
           [ Harness.Stats.p50; Harness.Stats.p90; Harness.Stats.p99;
             Harness.Stats.p999 ]);
    Alcotest.test_case "percentiles of a singleton are that element"
      `Quick
      (fun () ->
         List.iter
           (fun f -> Alcotest.(check int) "singleton" 42 (f [ 42 ]))
           [ Harness.Stats.p50; Harness.Stats.p90; Harness.Stats.p99;
             Harness.Stats.p999 ]);
    Alcotest.test_case "exact ranks on 1..100" `Quick (fun () ->
        (* nearest-rank: value at 1-based index ceil(q/100 * n) *)
        let xs = List.init 100 (fun i -> 100 - i) in  (* unsorted *)
        Alcotest.(check int) "p50" 50 (Harness.Stats.p50 xs);
        Alcotest.(check int) "p90" 90 (Harness.Stats.p90 xs);
        Alcotest.(check int) "p99" 99 (Harness.Stats.p99 xs);
        Alcotest.(check int) "p999" 100 (Harness.Stats.p999 xs));
    Alcotest.test_case "rank clamps to [1, n]" `Quick (fun () ->
        Alcotest.(check int) "q=50 n=4" 2 (Harness.Stats.rank ~q:50.0 4);
        Alcotest.(check int) "q=99.9 n=1000" 999
          (Harness.Stats.rank ~q:99.9 1000);
        Alcotest.(check int) "q=100 n=7" 7 (Harness.Stats.rank ~q:100.0 7);
        Alcotest.(check int) "tiny q floors at 1" 1
          (Harness.Stats.rank ~q:0.001 1000);
        Alcotest.(check int) "n=0" 0 (Harness.Stats.rank ~q:50.0 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"percentiles are members and monotone in q" ~count:200
         QCheck.(list_of_size (QCheck.Gen.int_range 1 50) small_int)
         (fun xs ->
            let p50 = Harness.Stats.p50 xs
            and p90 = Harness.Stats.p90 xs
            and p99 = Harness.Stats.p99 xs
            and p999 = Harness.Stats.p999 xs in
            List.for_all (fun p -> List.mem p xs) [ p50; p90; p99; p999 ]
            && p50 <= p90 && p90 <= p99 && p99 <= p999));
  ]

let rendering_tests =
  [
    Alcotest.test_case "Table I renders the suite and the paper counts"
      `Quick
      (fun () ->
         let buf = Buffer.create 256 in
         let fmt = Format.formatter_of_buffer buf in
         Harness.Tables.table1 fmt ();
         Format.pp_print_flush fmt ();
         let s = Buffer.contents buf in
         List.iter
           (fun needle ->
              if
                not
                  (try
                     ignore (Str.search_forward (Str.regexp_string needle) s 0);
                     true
                   with Not_found -> false)
              then Alcotest.failf "missing %S in Table I output" needle)
           [ "CWE121"; "CWE761"; "985"; "15752" ]);
    Alcotest.test_case "Figure 3 demo reports only for CECSan" `Quick
      (fun () ->
         let buf = Buffer.create 256 in
         let fmt = Format.formatter_of_buffer buf in
         Harness.Figures.fig3 fmt ();
         Format.pp_print_flush fmt ();
         let s = Buffer.contents buf in
         let count_sub needle =
           let re = Str.regexp_string needle in
           let rec go i acc =
             match Str.search_forward re s i with
             | j -> go (j + 1) (acc + 1)
             | exception Not_found -> acc
           in
           go 0 0
         in
         Alcotest.(check int) "one BUG line" 1 (count_sub "BUG");
         Alcotest.(check int) "three clean exits" 3 (count_sub "exit 0"));
    Alcotest.test_case "Figure 4 demo keeps detection" `Quick (fun () ->
        let buf = Buffer.create 256 in
        let fmt = Format.formatter_of_buffer buf in
        Harness.Figures.fig4 fmt ();
        Format.pp_print_flush fmt ();
        let s = Buffer.contents buf in
        (try
           ignore
             (Str.search_forward (Str.regexp_string "safety preserved") s 0)
         with Not_found -> Alcotest.fail "missing safety line");
        try ignore (Str.search_forward (Str.regexp_string "BUG") s 0)
        with Not_found -> Alcotest.fail "optimized build must still detect");
  ]

(* a small sampled Table II: the full run lives in bench/main.exe; here
   we validate the machinery end to end on one CWE *)
let sampled_eval_tests =
  [
    Alcotest.test_case "sampled Table II round trip (CWE415)" `Quick
      (fun () ->
         let cases = Juliet.Suite.cases_for Juliet.Case.C415 in
         let d = Harness.Tables.run_table2 ~cases () in
         let buf = Buffer.create 256 in
         let fmt = Format.formatter_of_buffer buf in
         Harness.Tables.table2 fmt d;
         Format.pp_print_flush fmt ();
         List.iter
           (fun tr ->
              match Juliet.Runner.rate tr Juliet.Case.C415 with
              | Some r ->
                Alcotest.(check (float 0.01))
                  (tr.Juliet.Runner.tool ^ " on CWE415") 100.0 r
              | None -> ())
           d.Harness.Tables.t2_tools);
  ]

(* the tentpole guarantee: running the grid on a domain pool produces
   results structurally identical to the sequential run *)
let parallel_tests =
  [
    Alcotest.test_case "pool map preserves submission order" `Quick
      (fun () ->
         Harness.Pool.with_pool ~jobs:4 (fun p ->
             let xs = List.init 100 Fun.id in
             Alcotest.(check (list int))
               "order" (List.map (fun x -> x * x) xs)
               (Harness.Pool.map p (fun x -> x * x) xs)));
    Alcotest.test_case "pool map re-raises the lowest-index exception"
      `Quick
      (fun () ->
         Harness.Pool.with_pool ~jobs:4 (fun p ->
             match
               Harness.Pool.map p
                 (fun x -> if x mod 5 = 3 then failwith (string_of_int x)
                   else x)
                 (List.init 32 Fun.id)
             with
             | (_ : int list) -> Alcotest.fail "expected an exception"
             | exception Failure m ->
               Alcotest.(check string) "first failing index" "3" m));
    Alcotest.test_case "pool map_results keeps errors positional" `Quick
      (fun () ->
         let f x = if x mod 3 = 1 then failwith (string_of_int x) else x * 2 in
         let xs = List.init 20 Fun.id in
         let norm rs =
           List.map
             (function
               | Ok v -> Printf.sprintf "ok:%d" v
               | Error (Failure m) -> "err:" ^ m
               | Error e -> "err:" ^ Printexc.to_string e)
             rs
         in
         let seq =
           Harness.Pool.with_pool ~jobs:1 (fun p ->
               norm (Harness.Pool.map_results p f xs))
         in
         let par =
           Harness.Pool.with_pool ~jobs:4 (fun p ->
               norm (Harness.Pool.map_results p f xs))
         in
         Alcotest.(check (list string)) "j1 = j4" seq par;
         Alcotest.(check string) "index 1 failed" "err:1" (List.nth seq 1);
         Alcotest.(check string) "index 2 ok" "ok:4" (List.nth seq 2));
    Alcotest.test_case "pool map_results survives every task raising"
      `Quick
      (fun () ->
         Harness.Pool.with_pool ~jobs:4 (fun p ->
             let rs =
               Harness.Pool.map_results p
                 (fun x -> failwith (string_of_int x))
                 (List.init 64 Fun.id)
             in
             Alcotest.(check int) "all errors" 64
               (List.length
                  (List.filter (function Error _ -> true | _ -> false) rs))));
    Alcotest.test_case "nested pool map raises instead of deadlocking"
      `Quick
      (fun () ->
         Harness.Pool.with_pool ~jobs:2 (fun p ->
             match
               Harness.Pool.map p
                 (fun _ -> Harness.Pool.map p (fun y -> y) [ 1; 2 ])
                 [ 0; 1 ]
             with
             | _ -> Alcotest.fail "expected Invalid_argument"
             | exception Invalid_argument _ -> ()));
    Alcotest.test_case "pool shutdown is idempotent" `Quick (fun () ->
        let p = Harness.Pool.create ~jobs:3 in
        Alcotest.(check (list int)) "works" [ 2; 4 ]
          (Harness.Pool.map p (fun x -> x * 2) [ 1; 2 ]);
        Harness.Pool.shutdown p;
        Harness.Pool.shutdown p);
    Alcotest.test_case "pool create rejects negative job counts" `Quick
      (fun () ->
         match Harness.Pool.create ~jobs:(-1) with
         | _ -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ());
    Alcotest.test_case "with_jobs hands a pool only above one job" `Quick
      (fun () ->
         Alcotest.(check bool) "-j 1: none" true
           (Harness.Pool.with_jobs 1 Option.is_none);
         Alcotest.(check (list int)) "-j 3: a pool that maps" [ 2; 4 ]
           (Harness.Pool.with_jobs 3 (fun pool ->
                Alcotest.(check bool) "some" true (Option.is_some pool);
                Harness.Pool.maybe_map pool (fun x -> x * 2) [ 1; 2 ])));
    Alcotest.test_case "-j 4 Table II subset equals sequential" `Quick
      (fun () ->
         let cases = Juliet.Suite.cases_for Juliet.Case.C415 in
         let seq = Harness.Tables.run_table2 ~cases () in
         let par =
           Harness.Pool.with_pool ~jobs:4 (fun p ->
               Harness.Tables.run_table2 ~pool:p ~cases ())
         in
         Alcotest.(check bool) "identical results" true (seq = par));
    Alcotest.test_case "-j 4 Table IV row equals sequential" `Quick
      (fun () ->
         let w = [ Workloads.Spec2006.mcf ] in
         let seq = Harness.Overhead.measure w in
         let par =
           Harness.Pool.with_pool ~jobs:4 (fun p ->
               Harness.Overhead.measure ~pool:p w)
         in
         Alcotest.(check bool) "identical rows" true (seq = par));
  ]

(* The shared flags, parsed from argv arrays exactly as a binary's
   [Cmd.eval] would: [Some v] is the term's value, [None] a rejection. *)
let parse term args =
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  match
    Cmdliner.Cmd.eval_value ~help:null ~err:null
      ~argv:(Array.of_list ("prog" :: args))
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "prog") term)
  with
  | Ok (`Ok v) -> Some v
  | Ok (`Help | `Version) | Error _ -> None

let flag_tests =
  let backend =
    Alcotest.testable
      (fun fmt b ->
         Format.pp_print_string fmt
           (match b with Vm.Machine.Interp -> "interp" | Vm.Machine.Jit -> "jit"))
      ( = )
  in
  let jobs = Harness.Cli.jobs ~doc:"" and seed = Harness.Cli.seed ~doc:"" in
  [
    Alcotest.test_case "-j 0 resolves to one job per core, -j -1 rejected"
      `Quick (fun () ->
          Alcotest.(check (option int)) "-j 0"
            (Some (Domain.recommended_domain_count ())) (parse jobs [ "-j"; "0" ]);
          Alcotest.(check (option int)) "--jobs 3" (Some 3)
            (parse jobs [ "--jobs"; "3" ]);
          Alcotest.(check (option int)) "default" (Some 1) (parse jobs []);
          Alcotest.(check (option int)) "-j -1" None (parse jobs [ "-j"; "-1" ]);
          Alcotest.(check (option int)) "--jobs=-1" None
            (parse jobs [ "--jobs=-1" ]);
          Alcotest.(check (option int)) "-j x" None (parse jobs [ "-j"; "x" ]));
    Alcotest.test_case "--seed takes 0x, rejects negatives" `Quick (fun () ->
        Alcotest.(check (option int)) "0xBEEF" (Some 0xBEEF)
          (parse seed [ "--seed"; "0xBEEF" ]);
        Alcotest.(check (option int)) "default" (Some 0x5EED) (parse seed []);
        Alcotest.(check (option int)) "--seed -3" None
          (parse seed [ "--seed"; "-3" ]);
        Alcotest.(check (option int)) "--seed=-3" None
          (parse seed [ "--seed=-3" ]));
    Alcotest.test_case "--backend takes interp|jit only" `Quick (fun () ->
        let b = Harness.Cli.backend ~doc:"" in
        Alcotest.(check (option (option backend))) "jit"
          (Some (Some Vm.Machine.Jit)) (parse b [ "--backend"; "jit" ]);
        Alcotest.(check (option (option backend))) "absent" (Some None)
          (parse b []);
        Alcotest.(check (option (option backend))) "x" None
          (parse b [ "--backend"; "x" ]));
  ]

let () =
  Alcotest.run "harness"
    [
      "stats", stats_tests;
      "rendering", rendering_tests;
      "sampled-eval", sampled_eval_tests;
      "parallel", parallel_tests;
      "flags", flag_tests;
    ]
