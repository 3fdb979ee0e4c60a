(* Tests of the certified-elision pipeline (DESIGN.md section 16):
   Tir.Absint behavior through the CECSan and ASan-- pipelines, the
   Tir.Scev overflow-guarded endpoint helpers, witness-replay mutation
   kills, and the absint-on/off differential property. *)

let seed_gen = QCheck.(map abs int)

let build_cecsan ?(absint = true) src =
  let config =
    { Cecsan.Config.default with Cecsan.Config.opt_absint = absint }
  in
  Sanitizer.Driver.build (Cecsan.sanitizer ~config ()) src

let count_markers md =
  Tir.Ir.count_intrins md (fun n -> String.equal n Tir.Ir.telemetry_elided)

let count_checks md =
  let meaning = Tir.Analysis.meaning Cecsan.Opt.spec in
  Tir.Ir.count_intrins md (fun n ->
      match meaning n with
      | Tir.Analysis.Check _ | Spatial _ -> true
      | _ -> false)

(* straight-line, non-escaping stack + heap accesses: everything the
   redundant pass leaves behind is certifiably elidable *)
let demo_src =
  "int main() { int a[4]; a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; \
   int *p = (int*)malloc(8); p[0] = a[0] + a[2]; p[1] = a[1] + a[3]; \
   int r = p[0] * p[1]; free(p); return r & 0x7f; }"

(* --- elision through the full pipeline ----------------------------------- *)

let absint_tests =
  [
    Alcotest.test_case "in-bounds non-escaping checks elide with witnesses"
      `Quick
      (fun () ->
         (* Strict verify inside [build] already replayed every witness *)
         let md = build_cecsan demo_src in
         Alcotest.(check bool) "elided markers present" true
           (count_markers md > 0);
         Alcotest.(check bool) "witnesses minted" true
           (md.Tir.Ir.m_witnesses <> []);
         List.iter
           (fun w ->
              Alcotest.(check bool) "witness claims non-escaping" false
                w.Tir.Witness.w_escapes)
           md.Tir.Ir.m_witnesses);
    Alcotest.test_case "an escaping pointer blocks elision" `Quick
      (fun () ->
         (* p escapes into the impure callee, so its checks survive *)
         let src =
           "static void sink(int *q) { free(q); } \
            int main() { int *p = (int*)malloc(8); p[0] = 7; \
            int r = p[0]; sink(p); return r; }"
         in
         let md = build_cecsan src in
         Alcotest.(check bool) "checks remain" true (count_checks md > 0));
    Alcotest.test_case "absint strictly increases elided sites" `Quick
      (fun () ->
         (* the acceptance pin: on top of redundant + loop elisions, the
            absint pass must elide or downgrade strictly more sites
            across the kernels (SPEC code mostly earns downgrades: the
            temporal half proves where variable sizes block bounds) *)
         let total absint =
           List.fold_left
             (fun acc (w : Workloads.Spec2006.t) ->
                match build_cecsan ~absint w.Workloads.Spec2006.w_source with
                | md ->
                  acc + count_markers md
                  + Tir.Ir.count_intrins md (fun n ->
                      Filename.check_suffix n "_spatial")
                | exception Sanitizer.Spec.Unsupported _ -> acc)
             0
             Workloads.Spec2006.all
         in
         let on = total true and off = total false in
         Alcotest.(check bool)
           (Printf.sprintf "%d (absint) > %d (scev-only)" on off)
           true (on > off));
    Alcotest.test_case "asan-- rides the same machinery via call models"
      `Quick
      (fun () ->
         (* allocator CALLS (not intrinsics) feed the points-to domain;
            Strict verify replayed the witnesses during build *)
         let md =
           Sanitizer.Driver.build (Baselines.Asan_minus.sanitizer ()) demo_src
         in
         Alcotest.(check bool) "asan-- witnesses minted" true
           (md.Tir.Ir.m_witnesses <> []));
    Alcotest.test_case "downgraded sites keep their site id and detection"
      `Quick
      (fun () ->
         (* every witness must point at a live site of its function *)
         let md = build_cecsan demo_src in
         List.iter
           (fun w ->
              Alcotest.(check bool) "site id minted" true
                (w.Tir.Witness.w_site >= 0))
           md.Tir.Ir.m_witnesses);
  ]

(* --- Tir.Scev endpoint edge cases (overflow-guarded helpers) -------------- *)

let scev_tests =
  [
    Alcotest.test_case "non-positive strides and zero-trip loops reject"
      `Quick
      (fun () ->
         Alcotest.(check (option int)) "negative stride" None
           (Tir.Scev.last_index ~start:0 ~bound:10 ~step:(-2));
         Alcotest.(check (option int)) "zero stride" None
           (Tir.Scev.last_index ~start:0 ~bound:10 ~step:0);
         Alcotest.(check (option int)) "zero-trip (bound = start)" None
           (Tir.Scev.last_index ~start:5 ~bound:5 ~step:1);
         Alcotest.(check (option int)) "zero-trip (bound < start)" None
           (Tir.Scev.last_index ~start:9 ~bound:2 ~step:3);
         Alcotest.(check (option int)) "one-trip" (Some 4)
           (Tir.Scev.last_index ~start:4 ~bound:5 ~step:7));
    Alcotest.test_case "endpoint arithmetic near max_int refuses to wrap"
      `Quick
      (fun () ->
         Alcotest.(check (option int)) "add overflow" None
           (Tir.Scev.add_no_ov max_int 1);
         Alcotest.(check (option int)) "sub underflow" None
           (Tir.Scev.sub_no_ov min_int 1);
         Alcotest.(check (option int)) "mul overflow" None
           (Tir.Scev.mul_no_ov ((max_int / 2) + 1) 2);
         Alcotest.(check (option int)) "min_int * -1" None
           (Tir.Scev.mul_no_ov min_int (-1));
         Alcotest.(check (option (pair int int))) "endpoint mul overflow"
           None
           (Tir.Scev.endpoint_offsets ~start:(max_int / 2)
              ~bound:((max_int / 2) + 2) ~step:1 ~elem_size:4 ~off:0);
         Alcotest.(check (option (pair int int))) "endpoint off overflow"
           None
           (Tir.Scev.endpoint_offsets ~start:(max_int - 8) ~bound:max_int
              ~step:1 ~elem_size:1 ~off:16));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"derived endpoints never overflow or flip sign" ~count:2000
         QCheck.(
           let corner =
             oneofl [ 0; 1; 2; 7; 1000; max_int; max_int - 1; max_int / 2;
                      max_int / 4 * 3 ]
           in
           let small = map abs small_int in
           tup5 (oneof [ small; corner ]) (oneof [ small; corner ])
             (map (fun n -> 1 + abs n) small_int)
             (oneof [ small; oneofl [ 0; 1; 4; 8; max_int / 2 ] ])
             (oneof [ small; corner ]))
         (fun (start, bound, step, elem_size, off) ->
            match
              Tir.Scev.endpoint_offsets ~start ~bound ~step ~elem_size ~off
            with
            | None -> true
            | Some (x, y) ->
              (* all inputs are >= 0 here, so a negative endpoint can
                 only come from silent wraparound *)
              if x < 0 || y < 0 || x > y then
                QCheck.Test.fail_reportf
                  "start=%d bound=%d step=%d es=%d off=%d -> (%d, %d)"
                  start bound step elem_size off x y
              else true));
    Alcotest.test_case "negative-stride loops stay correct end to end"
      `Quick
      (fun () ->
         (* a countdown loop is outside scev's grouping pattern: checks
            stay per-iteration, behavior and detection are unchanged *)
         let clean =
           "int main() { int a[8]; int s = 0; \
            for (int i = 8; i > 0; i--) a[i-1] = i; \
            for (int i = 0; i < 8; i++) s = s + a[i]; return s & 0x7f; }"
         in
         (match
            (Sanitizer.Driver.run (Cecsan.sanitizer ()) clean)
              .Sanitizer.Driver.outcome
          with
          | Vm.Machine.Exit c -> Alcotest.(check int) "clean exit" 36 c
          | o ->
            Alcotest.failf "clean countdown: %a" Vm.Machine.pp_outcome o);
         let oob =
           "int main() { int a[8]; int s = 0; \
            for (int i = 8; i >= 0; i--) a[i] = i; \
            for (int i = 0; i < 8; i++) s = s + a[i]; return s & 0x7f; }"
         in
         match
           (Sanitizer.Driver.run (Cecsan.sanitizer ()) oob)
             .Sanitizer.Driver.outcome
         with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "oob countdown: %a" Vm.Machine.pp_outcome o);
  ]

(* --- witness-replay mutation kills ---------------------------------------- *)

(* Build the instrumented+optimized module WITHOUT the driver's Strict
   gate, so a mutation can be planted before verification. *)
let build_unverified src =
  let md = Sanitizer.Driver.compile_cached ~optimize:true src in
  let san = Cecsan.sanitizer () in
  san.Sanitizer.Spec.instrument md;
  san.Sanitizer.Spec.optimize md;
  md

let verify md = Tir.Verify.check ~spec:Cecsan.Opt.spec md

let mutate_first f (md : Tir.Ir.modul) =
  match md.Tir.Ir.m_witnesses with
  | [] -> Alcotest.fail "expected at least one witness"
  | w :: rest -> md.Tir.Ir.m_witnesses <- f w :: rest

let expect_reject what md =
  let r = verify md in
  Alcotest.(check bool) (what ^ " rejected") true
    (r.Tir.Verify.r_errors <> [])

(* A loop over a stack array and straight-line heap accesses: main has
   witnesses, several blocks, and a loop whose header holds a range
   that survives widening ([k] toggles between 0 and 1). *)
let cert_src =
  "int main() { int a[8]; int k = 0; \
   for (int i = 0; i < 8; i++) { a[i] = k; k = 1 - k; } \
   int *p = (int*)malloc(16); p[0] = a[1]; p[1] = a[2]; \
   int s = p[0] + p[1]; free(p); return s & 0x7f; }"

let contains sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let main_of md =
  match Tir.Ir.find_func md "main" with
  | Some f -> f
  | None -> Alcotest.fail "no main"

let loop_header md =
  let f = main_of md in
  let cfg = Tir.Cfg.build f in
  match Tir.Cfg.loops f cfg (Tir.Cfg.dominators cfg) with
  | l :: _ -> l
  | [] -> Alcotest.fail "no loop"

let with_block (c : Tir.Absint.cert) b k =
  let c_block_in = Array.copy c.Tir.Absint.c_block_in in
  (match c_block_in.(b) with
   | Some st -> c_block_in.(b) <- k st
   | None -> Alcotest.failf "b%d has no claimed state" b);
  { c with Tir.Absint.c_block_in }

(* The errors [Driver.build] of [cert_src] under CECSan reports when
   [tamper] runs on the module right after the optimizer: the Strict
   gate must reject the build. *)
let tampered_build_errors tamper =
  let san = Cecsan.sanitizer () in
  let tampered =
    { san with
      Sanitizer.Spec.optimize =
        (fun md ->
           san.Sanitizer.Spec.optimize md;
           tamper md) }
  in
  match Sanitizer.Driver.build tampered cert_src with
  | (_ : Tir.Ir.modul) -> Alcotest.fail "build accepted"
  | exception Sanitizer.Driver.Verifier_reject { errors; _ } -> errors

(* main's certificate replaced by [tamper md cert] must be rejected for
   the certificate; with [from_latch], on a back edge of main's first
   loop. *)
let expect_cert_reject ?(from_latch = false) what tamper =
  let latches = ref [] in
  let errors =
    tampered_build_errors (fun md ->
        if md.Tir.Ir.m_witnesses = [] then
          Alcotest.fail "expected witnesses in main";
        let l = loop_header md in
        latches :=
          List.map
            (fun b ->
               Printf.sprintf "b%d exits in a state the certificate's \
                               entry state for b%d" b l.Tir.Cfg.header)
            l.Tir.Cfg.latches;
        let hit = ref false in
        md.Tir.Ir.m_certs <-
          List.map
            (function
              | Tir.Absint.Fixpoint c
                when String.equal c.Tir.Absint.c_func "main" ->
                hit := true;
                Tir.Absint.Fixpoint (tamper md c)
              | cert -> cert)
            md.Tir.Ir.m_certs;
        if not !hit then Alcotest.fail "main carries no certificate")
  in
  Alcotest.(check bool)
    (what ^ ": rejected for the certificate") true
    (List.exists (contains "absint certificate rejected") errors);
  if from_latch then
    Alcotest.(check bool)
      (what ^ ": rejected on a back edge") true
      (List.exists
         (fun e -> List.exists (fun l -> contains l e) !latches)
         errors)

let witness_tests =
  [
    Alcotest.test_case "intact witnesses replay clean" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         let r = verify md in
         Alcotest.(check (list string)) "no errors" []
           (List.map Tir.Verify.error_to_string r.Tir.Verify.r_errors);
         Alcotest.(check bool) "witnesses replayed" true
           (r.Tir.Verify.r_witnesses > 0));
    Alcotest.test_case "wrong interval bound is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first
           (fun w -> { w with Tir.Witness.w_hi = w.Tir.Witness.w_objsize })
           md;
         expect_reject "inflated w_hi" md);
    Alcotest.test_case "dropped escape fact is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_escapes = true }) md;
         expect_reject "escaping witness" md);
    Alcotest.test_case "stale temporal liveness is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_temporal = false }) md;
         expect_reject "non-temporal witness" md);
    Alcotest.test_case "wrong object descriptor is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_obj = "slot:bogus:9" })
           md;
         expect_reject "bogus object" md);
    Alcotest.test_case "dangling witness site is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_site = 999999 }) md;
         expect_reject "dangling site" md);
    Alcotest.test_case "deleting witnesses shrinks proven coverage" `Quick
      (fun () ->
         let base = build_unverified demo_src in
         let covered_base = (verify base).Tir.Verify.r_covered in
         let md = build_unverified demo_src in
         md.Tir.Ir.m_witnesses <- [];
         let r = verify md in
         Alcotest.(check bool)
           (Printf.sprintf "%d < %d" r.Tir.Verify.r_covered covered_base)
           true
           (r.Tir.Verify.r_covered < covered_base));
    Alcotest.test_case "a certificate weakened at one block is killed" `Quick
      (fun () ->
         (* a free claimed at one block reaches its successor, whose
            claimed state has none *)
         expect_cert_reject "weakened block" (fun md c ->
             let cfg = Tir.Cfg.build (main_of md) in
             let freed_at b =
               match c.Tir.Absint.c_block_in.(b) with
               | Some st -> Tir.Absint.Int_set.mem 0 st.Tir.Absint.s_freed
               | None -> true
             in
             let b =
               List.find
                 (fun b ->
                    b <> 0 && not (freed_at b)
                    && List.exists (fun s -> not (freed_at s))
                      cfg.Tir.Cfg.succs.(b))
                 (Array.to_list cfg.Tir.Cfg.rpo)
             in
             with_block c b (fun st ->
                 Some
                   { st with
                     Tir.Absint.s_freed =
                       Tir.Absint.Int_set.add 0 st.Tir.Absint.s_freed })));
    Alcotest.test_case "a certificate not inductive on a back edge is killed"
      `Quick
      (fun () ->
         expect_cert_reject ~from_latch:true "narrowed loop header"
           (fun md c ->
              let header = (loop_header md).Tir.Cfg.header in
              with_block c header (fun st ->
                  let narrowed = ref false in
                  let s_regs =
                    Array.map
                      (function
                        | Tir.Absint.Vint (l, h) when l < h ->
                          narrowed := true;
                          Tir.Absint.Vint (l, l)
                        | v -> v)
                      st.Tir.Absint.s_regs
                  in
                  if not !narrowed then
                    Alcotest.fail "loop header has no range to narrow";
                  Some { st with Tir.Absint.s_regs })));
    Alcotest.test_case "a missing certificate is killed" `Quick
      (fun () ->
         let errors =
           tampered_build_errors (fun md -> md.Tir.Ir.m_certs <- [])
         in
         Alcotest.(check bool) "names the certificate" true
           (List.exists (contains "no absint certificate") errors));
    Alcotest.test_case "a certificate with a wrong block count is killed"
      `Quick
      (fun () ->
         expect_cert_reject "extra block" (fun _ c ->
             { c with
               Tir.Absint.c_block_in =
                 Array.append c.Tir.Absint.c_block_in [| None |] }));
    Alcotest.test_case "an entry that is not the initial state is killed"
      `Quick
      (fun () ->
         expect_cert_reject "narrowed entry" (fun _ c ->
             with_block c 0 (fun st ->
                 let s_regs = Array.copy st.Tir.Absint.s_regs in
                 s_regs.(0) <- Tir.Absint.Vint (0, 0);
                 Some { st with Tir.Absint.s_regs })));
    Alcotest.test_case "out-of-range registers never raise in replay"
      `Quick
      (fun () ->
         (* malformed IR gets the lint's errors, and the certificate,
            laid out for the registers main defined before, is
            rejected instead of misread *)
         let md = build_unverified cert_src in
         let f = main_of md in
         let n = f.Tir.Ir.f_nregs in
         let b0 = f.Tir.Ir.f_blocks.(0) in
         b0.Tir.Ir.b_instrs <-
           Tir.Ir.Imov { dst = -3; src = Tir.Ir.Reg (n + 5) }
           :: Tir.Ir.Ibin
             { op = Tir.Ir.Add; dst = n + 9; a = Tir.Ir.Reg (-3);
               b = Tir.Ir.Imm 1 }
           :: b0.Tir.Ir.b_instrs;
         let r = verify md in
         let errors =
           List.map Tir.Verify.error_to_string r.Tir.Verify.r_errors
         in
         Alcotest.(check bool) "lint reports r-3" true
           (List.exists (contains "register r-3 out of range") errors);
         Alcotest.(check bool) "certificate rejected for its layout" true
           (List.exists (contains "not laid out for the registers") errors);
         Alcotest.(check int) "no witness replayed" 0
           r.Tir.Verify.r_witnesses);
    Alcotest.test_case "a reachable block claimed unreachable is killed"
      `Quick
      (fun () ->
         expect_cert_reject "dropped block" (fun md c ->
             let cfg = Tir.Cfg.build (main_of md) in
             with_block c cfg.Tir.Cfg.rpo.(1) (fun _ -> None)));
  ]

(* --- absint-on/off differential property ---------------------------------- *)

let site_sums (s : Telemetry.Snapshot.t) =
  List.map
    (fun (r : Telemetry.Snapshot.site_row) ->
       (r.Telemetry.Snapshot.s_site,
        r.Telemetry.Snapshot.s_executed + r.Telemetry.Snapshot.s_elided
        + r.Telemetry.Snapshot.s_covered))
    s.Telemetry.Snapshot.sites

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"certified elision is observationally invisible" ~count:200
         seed_gen
         (fun seed ->
            let p =
              Fuzz.Gen.generate ~inject:(seed mod 2 = 1)
                (Fuzz.Tape.fresh ~seed)
            in
            let go absint =
              Sanitizer.Driver.run
                (Cecsan.sanitizer
                   ~config:
                     { Cecsan.Config.default with
                       Cecsan.Config.opt_absint = absint }
                   ())
                ~externs:Fuzz.Oracle.externs p.Fuzz.Gen.src
            in
            let on = go true and off = go false in
            let show (r : Sanitizer.Driver.run_result) =
              Format.asprintf "%a" Vm.Machine.pp_outcome
                r.Sanitizer.Driver.outcome
            in
            if not (String.equal (show on) (show off)) then
              QCheck.Test.fail_reportf "seed %d: outcome %s vs %s@.%s" seed
                (show on) (show off) p.Fuzz.Gen.src
            else if
              not
                (String.equal on.Sanitizer.Driver.output
                   off.Sanitizer.Driver.output)
            then QCheck.Test.fail_reportf "seed %d: output diverged" seed
            else if on.Sanitizer.Driver.cycles > off.Sanitizer.Driver.cycles
            then
              QCheck.Test.fail_reportf
                "seed %d: absint made it SLOWER (%d > %d cycles)" seed
                on.Sanitizer.Driver.cycles off.Sanitizer.Driver.cycles
            else begin
              (* conservation per site: executed + elided + covered is
                 invariant under certified elision *)
              let a = site_sums on.Sanitizer.Driver.snapshot in
              let b = site_sums off.Sanitizer.Driver.snapshot in
              if a <> b then
                QCheck.Test.fail_reportf
                  "seed %d: per-site conservation broke@.%s" seed
                  p.Fuzz.Gen.src
              else true
            end));
  ]

(* --- equivalence pin ------------------------------------------------------ *)

(* One digest over everything the abstract interpreter and the verifier
   report on a fixed program set: every defined function's summary and
   per-site states, the fuel each [analyze] burned, each build's
   [Verify.check] counts and fuel, and the well-formedness errors of a
   deterministically corrupted copy (definite-assignment text and order
   included).  Taken under CECSan and ASan--, before and after
   [optimize].  The literal was captured before the fixpoint loops were
   last rewritten: any change to results or fuel breaks it, and only a
   deliberate change to what they compute may re-capture it. *)

let pin_budget = 1_000_000_000

let pin_sources () =
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let corpus =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort String.compare
    |> List.map (fun f -> read (Filename.concat "corpus" f))
  in
  List.map
    (fun (w : Workloads.Spec2006.t) -> w.Workloads.Spec2006.w_source)
    (Workloads.Spec2006.all @ Workloads.Spec2017.all)
  @ corpus
  @ List.init 200 (fun seed ->
      (Fuzz.Gen.generate ~inject:(seed mod 2 = 1) (Fuzz.Tape.fresh ~seed))
        .Fuzz.Gen.src)

let pp_aval buf = function
  | Tir.Absint.Vtop -> Buffer.add_string buf "T"
  | Tir.Absint.Vint (l, h) -> Printf.bprintf buf "i%d,%d" l h
  | Tir.Absint.Vptr { obj; lo; hi } -> Printf.bprintf buf "p%d:%d,%d" obj lo hi

let state_str (st : Tir.Absint.state) =
  let buf = Buffer.create 64 in
  Tir.Absint.iter_regs (fun r v -> Printf.bprintf buf " r%d=%a" r pp_aval v)
    st;
  Tir.Absint.Int_set.iter (Printf.bprintf buf " f%d") st.Tir.Absint.s_freed;
  Buffer.contents buf

let pin_sites buf (su : Tir.Absint.summary) =
  List.iter
    (fun site ->
       Printf.bprintf buf "site %d:%s\n" site
         (state_str (Option.get (Tir.Absint.site_state su site))))
    (Tir.Absint.sites su)

let pin_absint buf (spec : Tir.Analysis.spec) md =
  if spec.certified then begin
    let pure = Tir.Analysis.pure_callees md spec in
    let cx = Tir.Absint.make_ctx spec ~pure md in
    Tir.Ir.iter_funcs md (fun f ->
        if not f.Tir.Ir.f_external then begin
          let fuel = Tir.Fuel.make ~phase:"pin" ~budget:pin_budget in
          let su = Tir.Absint.analyze ~fuel cx f in
          Buffer.add_string buf
            (Format.asprintf "%a" Tir.Absint.pp_summary su);
          pin_sites buf su;
          Printf.bprintf buf "absint fuel %d\n" (Tir.Fuel.remaining fuel)
        end)
  end

let pin_verify buf spec md =
  let fuel = Tir.Fuel.make ~phase:"pin" ~budget:pin_budget in
  let r = Tir.Verify.check ~spec ~fuel md in
  Printf.bprintf buf "verify %d %d %d %d fuel %d\n" r.Tir.Verify.r_accesses
    r.Tir.Verify.r_covered r.Tir.Verify.r_witnesses
    (List.length r.Tir.Verify.r_errors)
    (Tir.Fuel.remaining fuel)

(* Drop the first definition of every odd block, and define a negative
   and an over-range register in the last block that the entry block
   reads first, so definite assignment has something to report. *)
let pin_corrupt buf md =
  let md = Tir.Ir.clone md in
  Tir.Ir.iter_funcs md (fun f ->
      let open Tir.Ir in
      Array.iteri
        (fun k b ->
           if k land 1 = 1 then begin
             let dropped = ref false in
             b.b_instrs <-
               List.filter
                 (fun i ->
                    if (not !dropped) && defs i <> None then begin
                      dropped := true;
                      false
                    end
                    else true)
                 b.b_instrs
           end)
        f.f_blocks;
      let n = Array.length f.f_blocks in
      if n > 0 then begin
        let b0 = f.f_blocks.(0) and bl = f.f_blocks.(n - 1) in
        b0.b_instrs <-
          Ibin { op = Add; dst = 0; a = Reg (-1); b = Reg (f.f_nregs + 2) }
          :: b0.b_instrs;
        bl.b_instrs <-
          Imov { dst = -1; src = Imm 0 }
          :: Imov { dst = f.f_nregs + 2; src = Reg (-1) } :: bl.b_instrs
      end);
  let fuel = Tir.Fuel.make ~phase:"pin" ~budget:pin_budget in
  List.iter
    (fun e -> Printf.bprintf buf "%s\n" (Tir.Verify.error_to_string e))
    (Tir.Verify.well_formed ~fuel md);
  Printf.bprintf buf "wf fuel %d\n" (Tir.Fuel.remaining fuel)

let pin_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let sources = pin_sources () in
  List.iter
    (fun (san : Sanitizer.Spec.t) ->
       let spec = Option.get san.Sanitizer.Spec.verify in
       List.iter
         (fun src ->
            let md = Sanitizer.Driver.compile_cached ~optimize:true src in
            match san.Sanitizer.Spec.instrument md with
            | exception Sanitizer.Spec.Unsupported _ ->
              Buffer.add_string buf "unsupported\n"
            | () ->
              pin_verify buf spec md;
              pin_absint buf spec md;
              pin_corrupt buf md;
              san.Sanitizer.Spec.optimize md;
              pin_verify buf spec md;
              pin_absint buf spec md;
              pin_corrupt buf md)
         sources)
    [ Cecsan.sanitizer (); Baselines.Asan_minus.sanitizer () ];
  (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The certificate Checkopt attaches is the fixpoint of the IR before
   its rewrite; it must equal a fresh analysis of the IR after it,
   block for block, or the checker would rest witnesses on other states
   than the ones an analysis of the verified IR finds. *)
let cert_matches_fixpoint () =
  let certified = ref 0 in
  List.iter
    (fun (san : Sanitizer.Spec.t) ->
       let spec = Option.get san.Sanitizer.Spec.verify in
       List.iter
         (fun src ->
            match Sanitizer.Driver.build san src with
            | exception Sanitizer.Spec.Unsupported _ -> ()
            | md ->
              let pure = Tir.Analysis.pure_callees md spec in
              let cx = Tir.Absint.make_ctx spec ~pure md in
              List.iter
                (function
                  | Tir.Absint.Fixpoint c ->
                    incr certified;
                    let f =
                      Option.get (Tir.Ir.find_func md c.Tir.Absint.c_func)
                    in
                    let fresh = Tir.Absint.analyze cx f in
                    let show = Array.map (Option.map state_str) in
                    Alcotest.(check (array (option string)))
                      (Printf.sprintf "%s: %s" san.Sanitizer.Spec.name
                         c.Tir.Absint.c_func)
                      (show fresh.Tir.Absint.su_block_in)
                      (show c.Tir.Absint.c_block_in)
                  | _ -> ())
                md.Tir.Ir.m_certs)
         (pin_sources ()))
    [ Cecsan.sanitizer (); Baselines.Asan_minus.sanitizer () ];
  Alcotest.(check bool) "certificates compared" true (!certified > 0)

(* A function whose negative and over-range registers -- an Icmp
   destination and an Imov/Ibin chain -- carry values through a loop.
   Dense states must print them exactly as the map-based states did;
   the literal was captured from the map-based analysis. *)
let out_of_range_src =
  "int main() { int a[4]; \
   for (int i = 0; i < 4; i++) a[i] = i; \
   return a[1]; }"

let out_of_range_dump () =
  let open Tir.Ir in
  let md = build_unverified out_of_range_src in
  let f = main_of md in
  let n = f.f_nregs in
  let b0 = f.f_blocks.(0) in
  let bl = f.f_blocks.(Array.length f.f_blocks - 1) in
  b0.b_instrs <-
    Imov { dst = n + 9; src = Imm 7 }
    :: Icmp { op = Lt; dst = -3; a = Reg (n + 9); b = Imm 9 }
    :: b0.b_instrs;
  bl.b_instrs <-
    Ibin { op = Add; dst = n + 9; a = Reg (n + 9); b = Imm 1 }
    :: Icmp { op = Eq; dst = -3; a = Reg (-3); b = Reg (n + 9) }
    :: bl.b_instrs;
  let spec = Cecsan.Opt.spec in
  let pure = Tir.Analysis.pure_callees md spec in
  let cx = Tir.Absint.make_ctx spec ~pure md in
  let su = Tir.Absint.analyze cx f in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "nregs %d\n" n;
  Buffer.add_string buf (Format.asprintf "%a" Tir.Absint.pp_summary su);
  pin_sites buf su;
  Buffer.contents buf

let out_of_range_expected = {|nregs 27
function main (0 facts)
  obj 0: slot:a:0 size 16
  block 1:
    r-3 = int [0,1]
    r17 = ptr slot:a:0+[0,0]
    r18 = ptr slot:a:0+[0,0]
    r21 = ptr slot:a:0+[12,12]
    r22 = ptr slot:a:0+[12,12]
    r23 = ptr slot:a:0+[12,12]
    r24 = ptr slot:a:0+[0,0]
    r25 = ptr slot:a:0+[0,0]
    r26 = ptr slot:a:0+[0,0]
    r36 = int 7
  block 2:
    r-3 = int [0,1]
    r3 = int [0,1]
    r17 = ptr slot:a:0+[0,0]
    r18 = ptr slot:a:0+[0,0]
    r21 = ptr slot:a:0+[12,12]
    r22 = ptr slot:a:0+[12,12]
    r23 = ptr slot:a:0+[12,12]
    r24 = ptr slot:a:0+[0,0]
    r25 = ptr slot:a:0+[0,0]
    r26 = ptr slot:a:0+[0,0]
    r36 = int 7
  block 3:
    r-3 = int [0,1]
    r3 = int [0,1]
    r6 = ptr slot:a:0+[0,0]
    r9 = ptr slot:a:0+[-inf,+inf]
    r17 = ptr slot:a:0+[0,0]
    r18 = ptr slot:a:0+[0,0]
    r19 = ptr slot:a:0+[-inf,+inf]
    r21 = ptr slot:a:0+[12,12]
    r22 = ptr slot:a:0+[12,12]
    r23 = ptr slot:a:0+[12,12]
    r24 = ptr slot:a:0+[0,0]
    r25 = ptr slot:a:0+[0,0]
    r26 = ptr slot:a:0+[0,0]
    r36 = int 7
  block 4:
    r-3 = int [0,1]
    r3 = int [0,1]
    r17 = ptr slot:a:0+[0,0]
    r18 = ptr slot:a:0+[0,0]
    r21 = ptr slot:a:0+[12,12]
    r22 = ptr slot:a:0+[12,12]
    r23 = ptr slot:a:0+[12,12]
    r24 = ptr slot:a:0+[0,0]
    r25 = ptr slot:a:0+[0,0]
    r26 = ptr slot:a:0+[0,0]
    r36 = int 7
site 0: r-3=i0,1 r18=p0:0,0 r36=i7,7
site 1: r-3=i0,1 r3=i0,1 r13=p0:0,0 r14=p0:4,4 r17=p0:0,0 r18=p0:0,0 r20=p0:4,4 r21=p0:12,12 r22=p0:12,12 r23=p0:12,12 r24=p0:0,0 r25=p0:0,0 r26=p0:0,0 r36=i7,7
site 3: r-3=i0,1 r3=i0,1 r6=p0:0,0 r9=p0:-4611686018427387904,4611686018427387903 r17=p0:0,0 r18=p0:0,0 r21=p0:12,12 r22=p0:12,12 r23=p0:12,12 r24=p0:0,0 r25=p0:0,0 r26=p0:0,0 r36=i7,7
site 4: r-3=i0,1 r3=i0,1 r13=p0:0,0 r14=p0:4,4 r17=p0:0,0 r18=p0:0,0 r21=p0:12,12 r22=p0:12,12 r23=p0:12,12 r24=p0:0,0 r25=p0:0,0 r26=p0:0,0 r36=i7,7
site 5: r-3=i0,1 r16=i0,0 r17=p0:0,0 r18=p0:0,0 r21=p0:12,12 r22=p0:12,12 r24=p0:0,0 r25=p0:0,0 r26=p0:0,0 r36=i7,7
site 6: r-3=i0,1 r16=i0,0 r17=p0:0,0 r18=p0:0,0 r24=p0:0,0 r25=p0:0,0 r36=i7,7
|}

(* --- Verify's full report, pinned ------------------------------------------ *)

(* The digest above records only Verify's error count.  This one records
   the whole [Verify.check] report -- every error's text in order, the
   four counters and the fuel left -- before and after [optimize], for
   the same program set under every tool with a verify spec, plus the
   reports on seeded mutants Verify must reject.  The literal was
   captured before Verify's coverage transfer moved onto dense tables. *)

let verify_tools () =
  [ Cecsan.sanitizer (); Baselines.Asan.sanitizer ();
    Baselines.Asan_minus.sanitizer (); Baselines.Hwasan.sanitizer ();
    Baselines.Softbound_cets.sanitizer (); Baselines.Pacmem.sanitizer ();
    Baselines.Cryptsan.sanitizer () ]

(* Prints the report and returns its error count. *)
let pin_report buf spec md =
  let fuel = Tir.Fuel.make ~phase:"pin" ~budget:pin_budget in
  let r = Tir.Verify.check ~spec ~fuel md in
  List.iter
    (fun e -> Printf.bprintf buf "  %s\n" (Tir.Verify.error_to_string e))
    r.Tir.Verify.r_errors;
  Printf.bprintf buf "report %d %d %d %d fuel %d\n" r.Tir.Verify.r_accesses
    r.Tir.Verify.r_covered r.Tir.Verify.r_funcs r.Tir.Verify.r_witnesses
    (Tir.Fuel.remaining fuel);
  List.length r.Tir.Verify.r_errors

let is_unsafe = function
  | Tir.Ir.Iload { safe = false; _ } | Tir.Ir.Istore { safe = false; _ } ->
    true
  | _ -> false

(* Every instruction [pick] selects whose block performs an unsafe access
   after it, as (function, block, position), in module order.  With
   [~entry], only a function's first such instruction, and only if it
   sits in the entry block: nothing runs before it, so no other check
   can cover the access it guards. *)
let mutation_points ?(entry = false) (md : Tir.Ir.modul) pick =
  let acc = ref [] in
  Tir.Ir.iter_funcs md (fun f ->
      if not f.Tir.Ir.f_external then begin
        let points = ref [] in
        Array.iter
          (fun (b : Tir.Ir.block) ->
             List.iteri
               (fun k i ->
                  if pick i then
                    points :=
                      ( b,
                        k,
                        List.exists is_unsafe
                          (List.filteri (fun j _ -> j > k) b.Tir.Ir.b_instrs)
                      )
                      :: !points)
               b.Tir.Ir.b_instrs)
          f.Tir.Ir.f_blocks;
        let points = List.rev !points in
        let points =
          if not entry then points
          else
            match points with
            | ((b, _, _) as p) :: _ when b.Tir.Ir.b_id = 0 -> [ p ]
            | _ -> []
        in
        List.iter
          (fun (b, k, guarded) -> if guarded then acc := (f, b, k) :: !acc)
          points
      end);
  List.rev !acc

(* Rewrites the instruction at position [k] of [b] into [now], and puts
   [later] right before the first unsafe access after it (right after
   it with [~after]). *)
let splice ?(after = false) (b : Tir.Ir.block) k ~now ~later =
  let placed = ref (later = []) in
  b.Tir.Ir.b_instrs <-
    List.concat
      (List.mapi
         (fun j i ->
            if j = k then now i
            else if j > k && (not !placed) && is_unsafe i then begin
              placed := true;
              if after then i :: later else later @ [ i ]
            end
            else [ i ])
         b.Tir.Ir.b_instrs)

(* The seeded mutants: each takes the [seed]-th point (mod their number)
   of a clone of the module, or is skipped when there is none. *)
let mutants (spec : Tir.Analysis.spec) =
  let open Tir.Ir in
  let is_check = function
    | Iintrin { name; args = [ Reg _; Imm _ ]; _ } ->
      String.equal name spec.check_load || String.equal name spec.check_store
    | _ -> false
  in
  let is_hoisted = function
    | Iintrin { name; _ } -> String.equal name telemetry_covered
    | _ -> false
  in
  let pointer = function
    | Iintrin { args = Reg p :: _; _ } -> p
    | _ -> assert false
  in
  let with_pointer q = function
    | Iintrin ({ args = _ :: rest; _ } as c) ->
      Iintrin { c with args = Reg q :: rest }
    | i -> i
  in
  [ ("drop a check", `Pre, is_check,
     fun _ b k -> splice b k ~now:(fun _ -> []) ~later:[]);
    ("move a check below its access", `Pre, is_check,
     fun _ b k ->
       splice ~after:true b k ~now:(fun _ -> [])
         ~later:[ List.nth b.b_instrs k ]);
    ("redefine a copy source between a check and its access", `Pre,
     is_check,
     fun f b k ->
       let c = fresh_reg f in
       splice b k
         ~now:(fun i ->
             let p = pointer i in
             [ Imov { dst = c; src = Reg p }; with_pointer c i;
               Ibin { op = Add; dst = p; a = Reg p; b = Imm 1 } ])
         ~later:[]);
    ("an impure call between a hoisted check and its access", `Post,
     is_hoisted,
     fun _ b k ->
       splice b k ~now:(fun i -> [ i ])
         ~later:[ Icall { dst = None; callee = "free"; args = [ Imm 0 ] } ]);
    ("a move into a register outside the frame", `Pre, is_check,
     fun f b k ->
       let n = f.f_nregs in
       splice b k
         ~now:(fun i ->
             [ Imov { dst = -2; src = Reg (pointer i) };
               Imov { dst = n + 1; src = Reg (-2) }; with_pointer (n + 1) i ])
         ~later:[]) ]

(* Digest text plus, per mutant, how often it applied and how many of
   those builds Verify accepted. *)
let verify_pin =
  lazy
    (let buf = Buffer.create (1 lsl 20) in
     let applied = Hashtbl.create 8 and accepted = Hashtbl.create 8 in
     let bump tbl name =
       Hashtbl.replace tbl name
         (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0)
     in
     let mutate spec seed md (name, at, pick, apply) =
       let md = Tir.Ir.clone md in
       match mutation_points ~entry:(at = `Pre) md pick with
       | [] -> ()
       | points ->
         let f, b, k = List.nth points (seed mod List.length points) in
         apply f b k;
         Printf.bprintf buf "mutant %s\n" name;
         bump applied name;
         if pin_report buf spec md = 0 then bump accepted name
     in
     let sources = pin_sources () in
     List.iter
       (fun (san : Sanitizer.Spec.t) ->
          let spec = Option.get san.Sanitizer.Spec.verify in
          let mutated =
            List.mem san.Sanitizer.Spec.name [ "CECSan"; "ASan--" ]
          in
          Printf.bprintf buf "tool %s\n" san.Sanitizer.Spec.name;
          List.iteri
            (fun seed src ->
               let md = Sanitizer.Driver.compile_cached ~optimize:true src in
               match san.Sanitizer.Spec.instrument md with
               | exception Sanitizer.Spec.Unsupported _ ->
                 Buffer.add_string buf "unsupported\n"
               | () ->
                 let phase p =
                   if mutated then
                     List.iter
                       (fun ((_, at, _, _) as m) ->
                          if at = p then mutate spec seed md m)
                       (mutants spec)
                 in
                 ignore (pin_report buf spec md);
                 phase `Pre;
                 san.Sanitizer.Spec.optimize md;
                 ignore (pin_report buf spec md);
                 phase `Post)
            sources)
       (verify_tools ());
     let counts tbl =
       List.map
         (fun (name, _, _, _) ->
            (name, Option.value (Hashtbl.find_opt tbl name) ~default:0))
         (mutants Cecsan.Opt.spec)
     in
     ( (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf))),
       counts applied, counts accepted ))

let verify_pin_tests =
  [
    Alcotest.test_case "verify reports match the pinned digest" `Quick
      (fun () ->
         let digest, _, _ = Lazy.force verify_pin in
         Alcotest.(check (pair int string)) "digest"
           (270021, "c63e810fcf0f6ed171a88a5064f89fcb")
           digest);
    Alcotest.test_case "every seeded mutant is rejected" `Quick (fun () ->
        let _, applied, accepted = Lazy.force verify_pin in
        List.iter2
          (fun (name, n) (_, ok) ->
             Alcotest.(check bool) (name ^ ": applied") true (n > 0);
             Alcotest.(check int) (name ^ ": accepted") 0 ok)
          applied accepted);
  ]

let pin_tests =
  [
    Alcotest.test_case "absint and verify outputs match the pinned digest"
      `Quick
      (fun () ->
         let len, hex = pin_digest () in
         Alcotest.(check (pair int string)) "digest"
           (5604903, "5cdd8cc9eeebd73d456da3af22faccb0")
           (len, hex));
    Alcotest.test_case "out-of-range registers keep their meaning" `Quick
      (fun () ->
         Alcotest.(check string) "summary and site states"
           out_of_range_expected (out_of_range_dump ()));
    Alcotest.test_case "certificates equal a fresh fixpoint" `Quick
      cert_matches_fixpoint;
  ]

let () =
  Alcotest.run "absint"
    [
      ("elision", absint_tests);
      ("scev-endpoints", scev_tests);
      ("witness-replay", witness_tests);
      ("differential", differential_tests);
      ("digest-pin", pin_tests);
      ("verify-pin", verify_pin_tests);
    ]
