(* Baseline sanitizer tests: each tool must catch what its mechanism
   catches and MISS what its mechanism structurally cannot see -- the
   capability matrix of DESIGN.md section 3, which drives Table II. *)

let asan = Baselines.Asan.sanitizer ()
let asan_minus = Baselines.Asan_minus.sanitizer ()
let hwasan = Baselines.Hwasan.sanitizer ()
let softbound = Baselines.Softbound_cets.sanitizer ()
let pacmem = Baselines.Pacmem.sanitizer ()
let cryptsan = Baselines.Cryptsan.sanitizer ()

let run san ?lines src = Sanitizer.Driver.run san ?lines src

let detects san name src =
  Alcotest.test_case name `Quick (fun () ->
      match (run san src).Sanitizer.Driver.outcome with
      | Vm.Machine.Bug _ -> ()
      | o ->
        Alcotest.failf "%s should detect, got %a" san.Sanitizer.Spec.name
          Vm.Machine.pp_outcome o)

let misses san name src =
  Alcotest.test_case name `Quick (fun () ->
      match (run san src).Sanitizer.Driver.outcome with
      | Vm.Machine.Exit _ | Vm.Machine.Fault _
      | Vm.Machine.Completed_with_bugs _ -> ()
      | Vm.Machine.Bug b ->
        Alcotest.failf "%s should structurally miss this, but reported %a"
          san.Sanitizer.Spec.name Vm.Report.pp b)

let clean san ?lines name src =
  Alcotest.test_case name `Quick (fun () ->
      match (run san ?lines src).Sanitizer.Driver.outcome with
      | Vm.Machine.Exit _ -> ()
      | o ->
        Alcotest.failf "%s false alarm: %a" san.Sanitizer.Spec.name
          Vm.Machine.pp_outcome o)

let preserves san name src =
  Alcotest.test_case name `Quick (fun () ->
      let r0 = run Sanitizer.Spec.none src in
      let r1 = run san src in
      match r0.Sanitizer.Driver.outcome, r1.Sanitizer.Driver.outcome with
      | Vm.Machine.Exit a, Vm.Machine.Exit b ->
        Alcotest.(check int) "same exit code" a b
      | a, b ->
        Alcotest.failf "diverged: %a vs %a" Vm.Machine.pp_outcome a
          Vm.Machine.pp_outcome b)

(* --- shared bug snippets ---------------------------------------------------- *)

let heap_oob =
  "int main() { char *p = (char*)malloc(16); p[17] = 'x'; free(p); \
   return 0; }"

let heap_uaf =
  "int main() { int *p = (int*)malloc(16); free(p); return p[0]; }"

let double_free =
  "int main() { char *p = (char*)malloc(8); free(p); free(p); return 0; }"

let invalid_free =
  "int main() { char *p = (char*)malloc(8); free(p + 2); return 0; }"

let stack_oob =
  "void fill(char *p, int n) { for (int i = 0; i <= n; i++) p[i] = 'a'; }\n\
   int main() { char buf[16]; fill(buf, 16); return 0; }"

let global_oob =
  "char gbuf[12];\n\
   int main() { for (int i = 0; i < 20; i++) gbuf[i] = 'g'; return 0; }"

let subobject_oob =
  "struct CharVoid { char charFirst[16]; void *voidSecond; };\n\
   int main() { struct CharVoid s; char src[32]; memset(src, 'A', 32); \
   memcpy(s.charFirst, src, sizeof(struct CharVoid) - 8); return 0; }"

(* a stride that clears ASan's 16-32 byte redzones and lands in the next
   chunk's live payload *)
let far_oob =
  "int main() { char *a = (char*)malloc(32); char *b = (char*)malloc(32); \
   b[0] = 'b'; a[72] = 'x'; int ok = b[0] == 'b' ? 0 : 1; free(a); free(b); \
   return ok; }"

let wide_oob =
  "int main() { wchar_t *dst = (wchar_t*)malloc(4 * sizeof(wchar_t)); \
   wchar_t src[16]; wcsncpy(src, L\"wwwwwwwwwwwwwww\", 16); \
   wcsncpy(dst, src, 16); free(dst); return 0; }"

let uaf_via_libc =
  "int main() { char *p = (char*)malloc(16); char dst[16]; free(p); \
   memcpy(dst, p, 16); return dst[0]; }"

let benign =
  "int main() { int *p = (int*)malloc(8 * sizeof(int)); \
   for (int i = 0; i < 8; i++) p[i] = i; int s = p[7]; free(p); \
   char buf[16]; strcpy(buf, \"ok\"); return s + (int)strlen(buf); }"

(* --- ASan --------------------------------------------------------------------- *)

let asan_tests =
  [
    detects asan "heap overflow" heap_oob;
    detects asan "heap UAF (quarantined)" heap_uaf;
    detects asan "double free" double_free;
    detects asan "invalid free" invalid_free;
    detects asan "stack overflow into redzone" stack_oob;
    detects asan "global overflow into redzone" global_oob;
    detects asan "underflow into left redzone"
      "int main() { char *p = (char*)malloc(16); p[-2] = 'x'; free(p); \
       return 0; }";
    detects asan "strcpy interceptor"
      "int main() { char *d = (char*)malloc(4); \
       strcpy(d, \"toooooo long\"); free(d); return 0; }";
    misses asan "sub-object overflow (by design)" subobject_oob;
    misses asan "far OOB jumps the redzone" far_oob;
    misses asan "wide-char overflow (no interceptor)" wide_oob;
    detects asan "UAF via intercepted memcpy" uaf_via_libc;
    Alcotest.test_case "UAF after quarantine eviction is missed" `Quick
      (fun () ->
         (* churn enough freed bytes through the quarantine to evict the
            victim, then reallocate: the stale pointer hits freshly valid
            memory *)
         let src =
           "int main() { char *victim = (char*)malloc(64); free(victim); \
            for (int i = 0; i < 700; i++) { char *f = (char*)malloc(4096); \
            free(f); } \
            char *re = (char*)malloc(64); re[0] = 'n'; \
            victim[0] = 'x'; free(re); return 0; }"
         in
         match (run asan src).Sanitizer.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o ->
           Alcotest.failf "expected eviction miss, got %a"
             Vm.Machine.pp_outcome o);
    clean asan "no false positives" benign;
    preserves asan "semantics preserved" benign;
  ]

let asan_minus_tests =
  [
    detects asan_minus "heap overflow" heap_oob;
    detects asan_minus "UAF" heap_uaf;
    detects asan_minus "stack overflow" stack_oob;
    misses asan_minus "sub-object overflow" subobject_oob;
    clean asan_minus "no false positives" benign;
    preserves asan_minus "semantics preserved" benign;
    Alcotest.test_case "debloating is faster than ASan" `Quick (fun () ->
        let src =
          "int main() { int a[64]; int s = 0; \
           for (int i = 0; i < 64; i++) a[i] = i; \
           for (int r = 0; r < 20; r++) for (int i = 0; i < 64; i++) \
           s += a[i]; return s & 255; }"
        in
        let full = run asan src in
        let lite = run asan_minus src in
        Alcotest.(check bool) "fewer cycles" true
          (lite.Sanitizer.Driver.cycles <= full.Sanitizer.Driver.cycles));
  ]

(* --- HWASan -------------------------------------------------------------------- *)

let hwasan_tests =
  [
    detects hwasan "heap overflow (next granule)" heap_oob;
    detects hwasan "heap UAF (retagged)" heap_uaf;
    detects hwasan "double free" double_free;
    detects hwasan "stack overflow" stack_oob;
    detects hwasan "global overflow" global_oob;
    misses hwasan "sub-object overflow" subobject_oob;
    misses hwasan "invalid free: interior tag matches" invalid_free;
    misses hwasan "UAF through uninstrumented libc" uaf_via_libc;
    misses hwasan "wide-char overflow" wide_oob;
    Alcotest.test_case "intra-granule overflow is missed" `Quick (fun () ->
        (* 20 bytes round to 32: bytes 20..31 carry the object's tag *)
        let src =
          "int main() { char *p = (char*)malloc(20); p[25] = 'x'; free(p); \
           return 0; }"
        in
        match (run hwasan src).Sanitizer.Driver.outcome with
        | Vm.Machine.Exit _ -> ()
        | o ->
          Alcotest.failf "expected granule miss, got %a"
            Vm.Machine.pp_outcome o);
    Alcotest.test_case "branch on an unsafe global folds to 1" `Quick
      (fun () ->
         (* the shared global rewrite folds [cbr @g], always taken, to
            [cbr 1] for HWASan as for CECSan's Global Pointer Table *)
         let src =
           "int g[4]; int main(){ g[0] = 1; if (g) return 1; return 0; }"
         in
         let md = Sanitizer.Driver.compile_cached ~optimize:true src in
         hwasan.Sanitizer.Spec.instrument md;
         let main = Option.get (Tir.Ir.find_func md "main") in
         let conds =
           List.filter_map
             (fun b ->
                match b.Tir.Ir.b_term with
                | Tir.Ir.Tcbr (c, _, _) ->
                  Some (Format.asprintf "%a" Tir.Pp.pp_opnd c)
                | Tir.Ir.Tret _ | Tir.Ir.Tbr _ -> None)
             (Array.to_list main.Tir.Ir.f_blocks)
         in
         Alcotest.(check (list string)) "branch conditions" [ "1" ] conds;
         let r = run hwasan src in
         Alcotest.(check string) "outcome" "exit 1"
           (Format.asprintf "%a" Vm.Machine.pp_outcome
              r.Sanitizer.Driver.outcome);
         Alcotest.(check int) "cycles" 14 r.Sanitizer.Driver.cycles);
    clean hwasan "no false positives" benign;
    preserves hwasan "semantics preserved" benign;
    clean hwasan "tagged pointers cross libc via TBI"
      "int main() { char *p = (char*)malloc(16); strcpy(p, \"hello\"); \
       int n = (int)strlen(p); char *q = strchr(p, 'l'); \
       int off = (int)(q - p); free(p); return n * 10 + off; }";
  ]

(* --- SoftBound/CETS ------------------------------------------------------------- *)

let softbound_tests =
  [
    detects softbound "heap overflow" heap_oob;
    detects softbound "heap UAF (key revoked)" heap_uaf;
    detects softbound "double free" double_free;
    detects softbound "invalid free" invalid_free;
    detects softbound "stack overflow" stack_oob;
    detects softbound "global overflow" global_oob;
    misses softbound "sub-object overflow (impl gap)" subobject_oob;
    Alcotest.test_case "wchar_t fails to compile (excluded)" `Quick
      (fun () ->
         match Sanitizer.Driver.build softbound wide_oob with
         | (_ : Tir.Ir.modul) ->
           Alcotest.fail "expected Unsupported for wchar_t"
         | exception Sanitizer.Spec.Unsupported _ -> ());
    Alcotest.test_case "missing wrapper causes a false positive" `Quick
      (fun () ->
         (* strchr has no wrapper: its result carries null bounds and the
            next dereference reports spuriously *)
         let src =
           "int main() { char buf[16]; strcpy(buf, \"find-me\"); \
            char *p = strchr(buf, 'm'); if (p == NULL) return 1; \
            return *p == 'm' ? 0 : 2; }"
         in
         match (run softbound src).Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o ->
           Alcotest.failf "expected the prototype's FP, got %a"
             Vm.Machine.pp_outcome o);
    Alcotest.test_case "UAF missed once the address is recycled" `Quick
      (fun () ->
         let src =
           "int main() { char *p = (char*)malloc(32); free(p); \
            char *q = (char*)malloc(32); q[0] = 'q'; \
            p[1] = 'x'; free(q); return 0; }"
         in
         match (run softbound src).Sanitizer.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o ->
           Alcotest.failf "expected value-recycling miss, got %a"
             Vm.Machine.pp_outcome o);
    clean softbound "no false positives on wrapped functions" benign;
    preserves softbound "semantics preserved" benign;
  ]

(* --- PACMem / CryptSan ------------------------------------------------------------ *)

let pa_tests (san : Sanitizer.Spec.t) =
  [
    detects san "heap overflow" heap_oob;
    detects san "heap UAF" heap_uaf;
    detects san "double free" double_free;
    detects san "invalid free" invalid_free;
    detects san "stack overflow" stack_oob;
    detects san "global overflow" global_oob;
    detects san "far OOB (bounds based)" far_oob;
    misses san "sub-object overflow" subobject_oob;
    misses san "wide-char overflow" wide_oob;
    detects san "narrow strcpy overflow (wrapped)"
      "int main() { char *d = (char*)malloc(4); \
       strcpy(d, \"still too long\"); free(d); return 0; }";
    clean san "no false positives" benign;
    preserves san "semantics preserved" benign;
  ]

let cryptsan_extra =
  [
    Alcotest.test_case "retired ids stay dead (no recycling)" `Quick
      (fun () ->
         (* many alloc/free cycles: stale pointers must still be caught
            because CryptSan ids are not reused *)
         let src =
           "int main() { char *stale = (char*)malloc(8); free(stale); \
            for (int i = 0; i < 50; i++) { char *t = (char*)malloc(8); \
            free(t); } stale[0] = 'x'; return 0; }"
         in
         match
           (run cryptsan src).Sanitizer.Driver.outcome
         with
         | Vm.Machine.Bug _ -> ()
         | o ->
           Alcotest.failf "CryptSan should catch stale id, got %a"
             Vm.Machine.pp_outcome o);
  ]

(* --- cross-cutting mechanism details ------------------------------------------ *)

let mechanism_tests =
  [
    Alcotest.test_case "ASan partial-granule shadow catches odd sizes"
      `Quick
      (fun () ->
         (* 10-byte allocation: shadow encodes the 2 valid bytes of the
            second granule, so p[10] is caught even mid-granule *)
         let src =
           "int main() { char *p = (char*)malloc(10); p[10] = 'x';             free(p); return 0; }"
         in
         match (run asan src).Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "ASan should catch: %a"
                  Vm.Machine.pp_outcome o);
    Alcotest.test_case "same odd size is HWASan's granule blind spot"
      `Quick
      (fun () ->
         let src =
           "int main() { char *p = (char*)malloc(10); p[10] = 'x';             free(p); return 0; }"
         in
         match (run hwasan src).Sanitizer.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o -> Alcotest.failf "HWASan should miss: %a"
                  Vm.Machine.pp_outcome o);
    Alcotest.test_case "SoftBound propagates metadata through memory"
      `Quick
      (fun () ->
         (* pointer stored into a struct field, loaded back, then
            overflowed: the in-memory metadata map must carry bounds *)
         let src =
           "struct Holder { char *data; int n; };
            int main() { struct Holder h;             h.data = (char*)malloc(8); h.n = 8;             char *p = h.data; p[9] = 'x'; free(h.data); return 0; }"
         in
         match (run softbound src).Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "SoftBound should catch: %a"
                  Vm.Machine.pp_outcome o);
    Alcotest.test_case "SoftBound key/lock catches UAF via stored pointer"
      `Quick
      (fun () ->
         let src =
           "char *stash[2];
            int main() { stash[0] = (char*)malloc(8);             free(stash[0]); char c = stash[0][0];             return c == 1 ? 1 : 0; }"
         in
         match (run softbound src).Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "SoftBound should catch: %a"
                  Vm.Machine.pp_outcome o);
    Alcotest.test_case "HWASan realloc of freed pointer reports" `Quick
      (fun () ->
         let src =
           "int main() { char *p = (char*)malloc(16); free(p);             p = (char*)realloc(p, 32); return 0; }"
         in
         match (run hwasan src).Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "HWASan should catch: %a"
                  Vm.Machine.pp_outcome o);
    Alcotest.test_case "PA tools survive realloc growth chains" `Quick
      (fun () ->
         let src =
           "int main() { long *v = (long*)malloc(4 * sizeof(long));             int cap = 4;             for (int i = 0; i < 100; i++) {               if (i >= cap) { cap *= 2;                 v = (long*)realloc(v, cap * sizeof(long)); }               v[i] = i; }             long s = v[99]; free(v); return (int)s & 127; }"
         in
         match (run pacmem src).Sanitizer.Driver.outcome with
         | Vm.Machine.Exit 99 -> ()
         | o -> Alcotest.failf "PACMem broke realloc: %a"
                  Vm.Machine.pp_outcome o);
    Alcotest.test_case "pointer compare across objects sees tags" `Quick
      (fun () ->
         (* a known limitation, pinned as is: tags ride pointer values,
            so [<] across objects compares the tags of the tag-based
            tools.  [r] adds 1 for s < h, 2 for g < h, 4 for g < s and
            8 for h2 < h; uninstrumented, the layout gives 2 + 4 *)
         let src =
           "int g[4]; int main(){ int *h = malloc(16); \
            int *h2 = malloc(16); int s[4]; int r = 0; \
            if ((int*)s < h) r += 1; if (g < h) r += 2; \
            if (g < (int*)s) r += 4; if (h2 < h) r += 8; \
            free(h); free(h2); return r; }"
         in
         List.iter
           (fun (san, expected) ->
              List.iter
                (fun backend ->
                   let r = Sanitizer.Driver.run san ~backend src in
                   Alcotest.(check string)
                     (san.Sanitizer.Spec.name ^ " outcome")
                     (Printf.sprintf "exit %d" expected)
                     (Format.asprintf "%a" Vm.Machine.pp_outcome
                        r.Sanitizer.Driver.outcome))
                [ Vm.Machine.Interp; Vm.Machine.Jit ])
           [ (Sanitizer.Spec.none, 6); (asan, 6); (asan_minus, 6);
             (softbound, 6); (Cecsan.sanitizer (), 7);
             (Cecsan.sanitizer ~config:Cecsan.Config.no_subobject (), 7);
             (pacmem, 7); (cryptsan, 7); (hwasan, 0) ]);
    Alcotest.test_case "every tool agrees on a mixed clean workload"
      `Quick
      (fun () ->
         let src =
           "struct Rec { char name[12]; int v; };
            int main() { struct Rec *rs = (struct Rec*)malloc(8 *             sizeof(struct Rec)); int s = 0;             for (int i = 0; i < 8; i++) {               strcpy(rs[i].name, \"rec\"); rs[i].v = i; s += rs[i].v; }             char buf[32]; strcpy(buf, \"summary\");             s += (int)strlen(buf); free(rs); return s; }"
         in
         let expect =
           match (run Sanitizer.Spec.none src).Sanitizer.Driver.outcome with
           | Vm.Machine.Exit c -> c
           | o -> Alcotest.failf "baseline failed: %a"
                    Vm.Machine.pp_outcome o
         in
         List.iter
           (fun (san : Sanitizer.Spec.t) ->
              match (run san src).Sanitizer.Driver.outcome with
              | Vm.Machine.Exit c when c = expect -> ()
              | o ->
                Alcotest.failf "%s diverged: %a" san.Sanitizer.Spec.name
                  Vm.Machine.pp_outcome o)
           [ asan; asan_minus; hwasan; softbound; pacmem; cryptsan;
             Cecsan.sanitizer () ]);
  ]

(* --- digest pin: the instrumented IR of every tool ----------------------- *)

(* PACMem and CryptSan used to name six intrinsics their own way
   (auth/seal/retire/strip).  The pin maps those whole names to the
   shared pass's, so code emitting either naming gives one digest. *)
let pa_rename =
  Str.regexp
    "__\\(pacmem\\|cryptsan\\)_\\(auth_load\\|auth_store\\|global_seal\\|\
     stack_seal\\|stack_retire\\|strip\\)\\b"

let pa_renamed text =
  Str.global_substitute pa_rename
    (fun s ->
       let suffix =
         match Str.matched_group 2 s with
         | "auth_load" -> "check_load"
         | "auth_store" -> "check_store"
         | "global_seal" -> "global_make"
         | "stack_seal" -> "stack_make"
         | "stack_retire" -> "stack_release"
         | _ -> "extcall_strip"
       in
       "__" ^ Str.matched_group 1 s ^ "_" ^ suffix)
    text

let pin_link_lib = {|
int lib_sum(int *data, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += data[i];
  return s;
}

char *lib_greet(char *buf) {
  strcpy(buf, "legacy");
  return buf;
}
|}

let pin_link_main = {|
extern int lib_sum(int *data, int n);
extern char *lib_greet(char *buf);

int table[8];

int main() {
  for (int i = 0; i < 8; i++) table[i] = i;
  char buf[16];
  strcpy(buf, "main");
  char *r = lib_greet(buf);
  return lib_sum(table, 8) + (r[0] == 'l' ? 1 : 0);
}
|}

(* Each module text is digested on its own, so the buffer stays small
   while every byte of every text still reaches the final digest. *)
let pin_text buf md =
  let text = pa_renamed (Tir.Pp.module_to_string md) in
  Printf.bprintf buf "%d %s\n" (String.length text)
    (Digest.to_hex (Digest.string text))

let pin_module buf (san : Sanitizer.Spec.t) md =
  match san.Sanitizer.Spec.instrument md with
  | exception Sanitizer.Spec.Unsupported _ ->
    Buffer.add_string buf "excluded\n"
  | () ->
    pin_text buf md;
    san.Sanitizer.Spec.optimize md;
    pin_text buf md

let pin_two_globals_src = {|
char ga[16];
char gb[16];

int get(char *p, int i) { return p[i]; }

int main() { return get(ga, 3) + get(gb, 4); }
|}

(* Lowered MiniC never puts two global addresses in one instruction, so
   the programs above cannot see the order in which an operand rewrite
   that mints registers and sites meets the operands.  These
   hand-made instructions can. *)
let pin_two_globals () =
  let open Tir.Ir in
  let md =
    Sanitizer.Driver.compile_cached ~optimize:true pin_two_globals_src
  in
  let f = Option.get (find_func md "main") in
  let ga = Glob "ga" and gb = Glob "gb" in
  let b0 = f.f_blocks.(0) in
  b0.b_instrs <-
    [ Ibin { op = Sub; dst = fresh_reg f; a = ga; b = gb };
      Icmp { op = Lt; dst = fresh_reg f; a = ga; b = gb };
      Igep { dst = fresh_reg f; base = ga; idx = Some gb;
             info = Gindex { elem_size = 1; count = None } };
      Istore { addr = ga; src = gb; size = 8; safe = false };
      Icall { dst = None; callee = "memcpy"; args = [ ga; gb; Imm 8 ] } ]
    @ b0.b_instrs;
  md

(* Every program the pin instruments, beside the two-globals and the
   linked ones. *)
let pin_sources () =
  List.map
    (fun (w : Workloads.Spec2006.t) -> w.Workloads.Spec2006.w_source)
    (Workloads.Spec2006.all @ Workloads.Spec2017.all)
  @ List.concat_map
    (fun (c : Juliet.Case.t) -> [ c.good_src; c.bad_src ])
    (Juliet.Suite.all ())
  @ List.map
    (fun (m : Workloads.Linux_flaws.t) -> m.Workloads.Linux_flaws.source)
    Workloads.Linux_flaws.all
  @ List.init 300 (fun seed ->
      (Fuzz.Gen.generate ~inject:(seed mod 2 = 0) (Fuzz.Tape.fresh ~seed))
        .Fuzz.Gen.src)

let pin_link san =
  Sanitizer.Driver.build_link san
    [ (pin_link_main, `Instrumented); (pin_link_lib, `Uninstrumented) ]

let pin_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let sources = pin_sources () in
  List.iter
    (fun (san : Sanitizer.Spec.t) ->
       Printf.bprintf buf "tool %s\n" san.Sanitizer.Spec.name;
       List.iter
         (fun src ->
            pin_module buf san
              (Sanitizer.Driver.compile_cached ~optimize:true src))
         sources;
       pin_module buf san (pin_two_globals ());
       match pin_link san with
       | exception Sanitizer.Spec.Unsupported _ ->
         Buffer.add_string buf "excluded\n"
       | md -> pin_text buf md)
    [ Cecsan.sanitizer ();
      Cecsan.sanitizer ~config:Cecsan.Config.no_subobject ();
      asan; asan_minus; hwasan; softbound; pacmem; cryptsan ];
  (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf)))

let pin_tests =
  [
    Alcotest.test_case "instrumented IR matches the pinned digest" `Quick
      (fun () ->
         let len, hex = pin_digest () in
         Alcotest.(check (pair int string)) "digest"
           (1374791, "74c9aa085e92110e3e747cbecca1cde0")
           (len, hex));
  ]

(* --- intrinsic roles: what the passes emit, the runtimes bind ------------ *)

(* Over the pin's programs after instrument and after optimize, every
   intrinsic a tool emits (telemetry markers aside) has a role in its
   spec and is bound by its runtime, and every name its runtime
   registers has a role: the role table is the whole namespace.  No
   role names a check or its spatial variant a second time. *)
let roles_cover_namespace () =
  let sources = pin_sources () in
  List.iter
    (fun (t : Baselines.Tools.t) ->
       let san = t.Baselines.Tools.make () in
       match san.Sanitizer.Spec.verify with
       | None -> ()
       | Some spec ->
         let meaning = Tir.Analysis.meaning spec in
         let declared name = meaning name <> Tir.Analysis.Undeclared in
         let key = t.Baselines.Tools.key in
         let checks = [ spec.check_load; spec.check_store ] in
         List.iter
           (fun (name, _) ->
              if List.exists
                  (fun c -> name = c || name = c ^ "_spatial") checks
              then Alcotest.failf "%s gives its check %s a role" key name)
           spec.intrinsics.declared;
         let rt = san.Sanitizer.Spec.fresh_runtime () in
         let emitted = Hashtbl.create 32 in
         let collect md =
           Tir.Ir.iter_funcs md (fun f ->
               Array.iter
                 (fun (b : Tir.Ir.block) ->
                    List.iter
                      (function
                        | Tir.Ir.Iintrin { name; _ }
                          when not (Tir.Ir.is_telemetry_marker name) ->
                          Hashtbl.replace emitted name ()
                        | _ -> ())
                      b.Tir.Ir.b_instrs)
                 f.Tir.Ir.f_blocks)
         in
         let instrument md =
           match san.Sanitizer.Spec.instrument md with
           | exception Sanitizer.Spec.Unsupported _ -> ()
           | () ->
             collect md;
             san.Sanitizer.Spec.optimize md;
             collect md
         in
         List.iter
           (fun src ->
              instrument (Sanitizer.Driver.compile_cached ~optimize:true src))
           sources;
         instrument (pin_two_globals ());
         (match pin_link san with
          | exception Sanitizer.Spec.Unsupported _ -> ()
          | md -> collect md);
         let sorted tbl =
           List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) tbl [])
         in
         List.iter
           (fun name ->
              if not (declared name) then
                Alcotest.failf "%s emits %s, which has no role" key name;
              if Vm.Runtime.find_intrinsic rt name = None then
                Alcotest.failf "%s emits %s, which its runtime leaves unbound"
                  key name)
           (sorted emitted);
         List.iter
           (fun name ->
              if not (declared name) then
                Alcotest.failf "%s's runtime registers %s, which has no role"
                  key name)
           (sorted rt.Vm.Runtime.intrinsics))
    Baselines.Tools.all

let role_tests =
  [ Alcotest.test_case "every emitted or registered intrinsic has a role"
      `Quick roles_cover_namespace ]

let () =
  Alcotest.run "baselines"
    [
      "asan", asan_tests;
      "asan--", asan_minus_tests;
      "hwasan", hwasan_tests;
      "softbound-cets", softbound_tests;
      "pacmem", pa_tests pacmem;
      "cryptsan", pa_tests cryptsan @ cryptsan_extra;
      "mechanisms", mechanism_tests;
      "digest-pin", pin_tests;
      "roles", role_tests;
    ]
