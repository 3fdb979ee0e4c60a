(* End-to-end tests of the uninstrumented pipeline: MiniC -> Tir -> VM.
   These pin down the *semantics* of the substrate: every sanitizer
   comparison rests on programs behaving like C here. *)

let base = Sanitizer.Spec.none

let run ?lines ?packets src = Sanitizer.Driver.run base ?lines ?packets src

let exit_code name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let r = run src in
      match r.Sanitizer.Driver.outcome with
      | Vm.Machine.Exit c -> Alcotest.(check int) "exit code" expected c
      | o -> Alcotest.failf "expected exit %d, got %a" expected
               Vm.Machine.pp_outcome o)

let prints name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let r = run src in
      (match r.Sanitizer.Driver.outcome with
       | Vm.Machine.Exit _ -> ()
       | o -> Alcotest.failf "run failed: %a" Vm.Machine.pp_outcome o);
      Alcotest.(check string) "output" expected r.Sanitizer.Driver.output)

let faults name src pred =
  Alcotest.test_case name `Quick (fun () ->
      let r = run src in
      match r.Sanitizer.Driver.outcome with
      | Vm.Machine.Fault t when pred t.Vm.Report.t_kind -> ()
      | o -> Alcotest.failf "expected a fault, got %a" Vm.Machine.pp_outcome o)

(* Both backends enter and leave every call through one protocol
   ([Vm.Jit.enter]/[leave]).  A runaway recursion traps with the same
   kind, address and cycle count on either backend, and it hits the
   limit it is meant to ([below_limit]: the 8 MiB stack, else the call
   depth).  The machine's execution context outlives a run, so a second
   run of the same machine after the trap must give the same result. *)
let call_limit name src ~below_limit =
  Alcotest.test_case name `Quick (fun () ->
      let md = Sanitizer.Driver.build base src in
      let observe backend =
        let st = Vm.State.create () in
        let m = Vm.Machine.create ~st md in
        let once () =
          let c0 = st.Vm.State.cycles in
          match Vm.Machine.run ~backend m with
          | Vm.Machine.Fault t ->
            Alcotest.(check bool) "trap kind" true
              (t.Vm.Report.t_kind = Vm.Report.Stack_exhausted);
            Alcotest.(check bool) "limit hit" below_limit
              (t.Vm.Report.t_addr < Vm.Layout46.stack_limit);
            (t.Vm.Report.t_addr, st.Vm.State.cycles - c0)
          | o ->
            Alcotest.failf "expected a stack trap, got %a"
              Vm.Machine.pp_outcome o
        in
        let first = once () in
        Alcotest.(check (pair int int)) "second run, same machine" first
          (once ());
        first
      in
      Alcotest.(check (pair int int)) "interp vs jit: address, cycles"
        (observe Vm.Machine.Interp) (observe Vm.Machine.Jit))

let arith_tests =
  [
    exit_code "return" "int main() { return 42; }" 42;
    exit_code "arith mix" "int main() { return 2 + 3 * 4 - 6 / 2; }" 11;
    exit_code "mod" "int main() { return 17 % 5; }" 2;
    exit_code "shifts" "int main() { return (1 << 6) | (256 >> 4); }" 80;
    exit_code "bitwise" "int main() { return (12 & 10) ^ (1 | 4); }" 13;
    exit_code "negative" "int main() { return 0 - (-7) * (-1) + 10; }" 3;
    exit_code "comparison chain"
      "int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + \
       (1 == 1) + (1 != 1); }" 4;
    exit_code "logical short circuit"
      "int g = 0;\nint bump() { g = g + 1; return 1; }\n\
       int main() { int r = 0 && bump(); int s = 1 || bump(); \
       return g * 10 + r + s; }" 1;
    exit_code "ternary" "int main() { int x = 7; return x > 5 ? 10 : 20; }" 10;
    exit_code "char sign extension"
      "int main() { char c = 200; return c < 0 ? 1 : 0; }" 1;
    exit_code "short truncation"
      "int main() { short s = 70000; return s == 4464 ? 1 : 0; }" 1;
    exit_code "cast narrowing"
      "int main() { long l = 0x1234; char c = (char)l; return c; }" 0x34;
    exit_code "sizeof values"
      "struct S { char a; long b; };\n\
       int main() { return sizeof(char) + sizeof(short) + sizeof(int) + \
       sizeof(long) + sizeof(int*) + sizeof(struct S); }" 39;
  ]

let control_tests =
  [
    exit_code "for sum" "int main() { int s = 0; for (int i = 1; i <= 10; i++) \
                         s += i; return s; }" 55;
    exit_code "while countdown"
      "int main() { int n = 100; int c = 0; while (n > 1) { n /= 2; c++; } \
       return c; }" 6;
    exit_code "do-while"
      "int main() { int i = 0; int n = 0; do { n++; i++; } while (i < 3); \
       return n; }" 3;
    exit_code "nested loops"
      "int main() { int s = 0; for (int i = 0; i < 5; i++) \
       for (int j = 0; j < i; j++) s++; return s; }" 10;
    exit_code "break/continue"
      "int main() { int s = 0; for (int i = 0; i < 100; i++) { \
       if (i % 2 == 0) continue; if (i > 10) break; s += i; } return s; }" 25;
    exit_code "recursion (fib)"
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n\
       int main() { return fib(12); }" 144;
    exit_code "mutual recursion"
      "int is_odd(int n);\n\
       int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }\n\
       int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }\n\
       int main() { return is_even(10) * 10 + is_odd(7); }" 11;
    exit_code "early return" "int f(int x) { if (x > 0) return 1; return 2; }\n\
                              int main() { return f(5) * 10 + f(-5); }" 12;
  ]

let memory_tests =
  [
    exit_code "stack array"
      "int main() { int a[5]; for (int i = 0; i < 5; i++) a[i] = i * i; \
       return a[4]; }" 16;
    exit_code "array init list"
      "int main() { int a[5] = {1, 2, 3}; return a[0] + a[1] + a[2] + a[3] + \
       a[4]; }" 6;
    exit_code "2d array"
      "int main() { int m[3][4]; for (int i = 0; i < 3; i++) \
       for (int j = 0; j < 4; j++) m[i][j] = i * 4 + j; \
       return m[2][3]; }" 11;
    exit_code "pointer swap"
      "void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }\n\
       int main() { int x = 3; int y = 9; swap(&x, &y); \
       return x * 10 + y; }" 93;
    exit_code "pointer walk"
      "int main() { int a[4] = {1, 2, 3, 4}; int *p = a; int s = 0; \
       for (int i = 0; i < 4; i++) { s += *p; p++; } return s; }" 10;
    exit_code "pointer diff"
      "int main() { long a[8]; long *p = &a[6]; long *q = &a[2]; \
       return (int)(p - q); }" 4;
    exit_code "malloc/free roundtrip"
      "int main() { int *p = (int*)malloc(10 * sizeof(int)); \
       for (int i = 0; i < 10; i++) p[i] = i; int s = p[9]; free(p); \
       return s; }" 9;
    exit_code "calloc zeroes"
      "int main() { int *p = (int*)calloc(8, sizeof(int)); int s = 0; \
       for (int i = 0; i < 8; i++) s += p[i]; free(p); return s; }" 0;
    exit_code "realloc preserves"
      "int main() { int *p = (int*)malloc(4 * sizeof(int)); \
       p[0] = 11; p[3] = 44; p = (int*)realloc(p, 16 * sizeof(int)); \
       int s = p[0] + p[3]; free(p); return s; }" 55;
    exit_code "malloc reuse after free"
      "int main() { char *a = (char*)malloc(32); free(a); \
       char *b = (char*)malloc(32); int same = (a == b); free(b); \
       return same; }" 1;
    exit_code "struct fields"
      "struct P { int x; int y; };\n\
       int main() { struct P p; p.x = 6; p.y = 7; return p.x * p.y; }" 42;
    exit_code "struct pointer"
      "struct P { int x; int y; };\n\
       void set(struct P *p, int v) { p->x = v; p->y = v * 2; }\n\
       int main() { struct P p; set(&p, 5); return p.x + p.y; }" 15;
    exit_code "struct copy"
      "struct P { int x; int y; };\n\
       int main() { struct P a; a.x = 1; a.y = 2; struct P b; b = a; \
       a.x = 9; return b.x * 10 + b.y; }" 12;
    exit_code "nested struct access"
      "struct In { int v; };\nstruct Out { struct In in; int w; };\n\
       int main() { struct Out o; o.in.v = 3; o.w = 4; \
       return o.in.v + o.w; }" 7;
    exit_code "struct array field"
      "struct Buf { char data[8]; int len; };\n\
       int main() { struct Buf b; b.len = 0; \
       for (int i = 0; i < 5; i++) { b.data[i] = 'a' + i; b.len++; } \
       return b.data[4] - 'a' + b.len; }" 9;
    exit_code "global counters"
      "int counter;\nvoid tick() { counter++; }\n\
       int main() { for (int i = 0; i < 5; i++) tick(); return counter; }" 5;
    exit_code "global array"
      "int table[10] = {9, 8, 7};\n\
       int main() { table[3] = 1; return table[0] + table[2] + table[3]; }" 17;
    exit_code "global struct"
      "struct Cfg { int a; int b; };\nstruct Cfg cfg = {3, 4};\n\
       int main() { return cfg.a * cfg.b; }" 12;
    exit_code "heap struct"
      "struct Node { int value; struct Node *next; };\n\
       int main() { struct Node *n1 = (struct Node*)malloc(sizeof(struct \
       Node)); struct Node *n2 = (struct Node*)malloc(sizeof(struct Node)); \
       n1->value = 1; n1->next = n2; n2->value = 2; n2->next = NULL; \
       int s = 0; struct Node *p = n1; while (p != NULL) { s += p->value; \
       p = p->next; } free(n1); free(n2); return s; }" 3;
  ]

let string_tests =
  [
    exit_code "strlen/strcpy"
      "int main() { char buf[16]; strcpy(buf, \"hello\"); \
       return (int)strlen(buf); }" 5;
    exit_code "strcat"
      "int main() { char buf[16] = \"ab\"; strcat(buf, \"cd\"); \
       return (int)strlen(buf) * 10 + (buf[3] == 'd'); }" 41;
    exit_code "strcmp"
      "int main() { return (strcmp(\"abc\", \"abc\") == 0) * 100 + \
       (strcmp(\"abc\", \"abd\") < 0) * 10 + (strcmp(\"b\", \"a\") > 0); }" 111;
    exit_code "strncpy pads"
      "int main() { char buf[8]; buf[5] = 'x'; strncpy(buf, \"ab\", 6); \
       return buf[5] == 0; }" 1;
    exit_code "strchr"
      "int main() { char *s = \"hello\"; char *p = strchr(s, 'l'); \
       return (int)(p - s); }" 2;
    exit_code "strdup"
      "int main() { char *p = strdup(\"dup\"); int n = (int)strlen(p); \
       free(p); return n; }" 3;
    exit_code "memcmp/memset"
      "int main() { char a[8]; char b[8]; memset(a, 7, 8); memset(b, 7, 8); \
       return memcmp(a, b, 8) == 0; }" 1;
    exit_code "memmove overlap"
      "int main() { char b[8] = {1, 2, 3, 4, 5}; memmove(b + 2, b, 3); \
       return b[2] * 100 + b[3] * 10 + b[4]; }" 123;
    exit_code "atoi" "int main() { return atoi(\"  1234xyz\"); }" 1234;
    exit_code "wide strings"
      "int main() { wchar_t buf[8]; wcscpy(buf, L\"wide\"); \
       return (int)wcslen(buf); }" 4;
    exit_code "wcsncpy"
      "int main() { wchar_t buf[8]; wcsncpy(buf, L\"ab\", 8); \
       return buf[1] == 'b' && buf[7] == 0; }" 1;
    prints "printf formats"
      "int main() { printf(\"%d %s %c %x!\", 42, \"ok\", 'Z', 255); \
       return 0; }"
      "42 ok Z ff!";
    prints "puts" "int main() { puts(\"line\"); return 0; }" "line\n";
  ]

let input_tests =
  [
    Alcotest.test_case "fgets from dummy server" `Quick (fun () ->
        let r =
          run ~lines:[ "first"; "second" ]
            "int main() { char buf[32]; fgets(buf, 32, 0); \
             int a = (int)strlen(buf); fgets(buf, 32, 0); \
             return a * 10 + (int)strlen(buf); }"
        in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Exit c -> Alcotest.(check int) "lens" 56 c
        | o -> Alcotest.failf "failed: %a" Vm.Machine.pp_outcome o);
    Alcotest.test_case "recv from dummy server" `Quick (fun () ->
        let r =
          run ~packets:[ "abcdef" ]
            "int main() { char buf[16]; int fd = socket(2, 1, 0); \
             long n = recv(fd, buf, 16, 0); return (int)n; }"
        in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Exit c -> Alcotest.(check int) "bytes" 6 c
        | o -> Alcotest.failf "failed: %a" Vm.Machine.pp_outcome o);
    Alcotest.test_case "fgets EOF returns NULL" `Quick (fun () ->
        let r =
          run
            "int main() { char buf[8]; char *p = fgets(buf, 8, 0); \
             return p == NULL; }"
        in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Exit 1 -> ()
        | o -> Alcotest.failf "failed: %a" Vm.Machine.pp_outcome o);
  ]

let fault_tests =
  [
    faults "null deref" "int main() { int *p = NULL; return *p; }"
      (function Vm.Report.Null_deref -> true | _ -> false);
    faults "wild pointer"
      "int main() { long *p = (long*)123456789012345; return (int)*p; }"
      (function Vm.Report.Segfault -> true | _ -> false);
    faults "division by zero"
      "int main() { int z = 0; return 5 / z; }"
      (function Vm.Report.Div_by_zero -> true | _ -> false);
    faults "stack exhaustion"
      "int deep(int n) { char pad[512]; pad[0] = (char)n; \
       return deep(n + 1) + pad[0]; }\n\
       int main() { return deep(0); }"
      (function Vm.Report.Stack_exhausted -> true | _ -> false);
    call_limit "stack exhaustion on both backends"
      "int deep(int n) { char pad[512]; pad[0] = (char)n; \
       return deep(n + 1) + pad[0]; }\n\
       int main() { return deep(0); }"
      ~below_limit:false;
    call_limit "tiny-frame recursion hits the depth limit"
      "int f(int n) { return f(n + 1) + 1; }\n\
       int main() { return f(0); }"
      ~below_limit:false;
    call_limit "large frames hit the stack limit"
      "int deep(int n) { char pad[4096]; pad[0] = (char)n; \
       return deep(n + 1) + pad[0]; }\n\
       int main() { return deep(0); }"
      ~below_limit:true;
    faults "glibc double free abort"
      "int main() { char *p = (char*)malloc(8); free(p); free(p); \
       return 0; }"
      (function Vm.Report.Heap_corruption -> true | _ -> false);
    faults "glibc invalid free abort"
      "int main() { char *p = (char*)malloc(8); free(p + 4); return 0; }"
      (function Vm.Report.Heap_corruption -> true | _ -> false);
    Alcotest.test_case "exit() builtin" `Quick (fun () ->
        let r = run "int main() { exit(7); return 0; }" in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Exit 7 -> ()
        | o -> Alcotest.failf "failed: %a" Vm.Machine.pp_outcome o);
    Alcotest.test_case "silent heap overflow into neighbor" `Quick
      (fun () ->
         (* no sanitizer: an OOB write into an adjacent allocation neither
            faults nor aborts -- the canonical silent corruption *)
         let r =
           run
             "int main() { char *a = (char*)malloc(16); \
              char *b = (char*)malloc(16); b[0] = 'B'; \
              a[18] = 'X'; return b[0]; }"
         in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o -> Alcotest.failf "expected silent corruption, got %a"
                  Vm.Machine.pp_outcome o);
  ]

let promote_tests =
  [
    Alcotest.test_case "scalars are promoted" `Quick (fun () ->
        let checked =
          Minic.Sema.parse_and_check
            "int main() { int a = 1; int b = 2; int c[4]; c[0] = a; \
             int *p = &b; return a + *p; }"
        in
        let md = Tir.Lower.lower checked in
        let n = Tir.Promote.run md in
        (* a is promotable; b has its address taken; c is an array *)
        Alcotest.(check bool) "promoted at least one" true (n >= 1);
        let f = Option.get (Tir.Ir.find_func md "main") in
        let slot_names =
          List.map (fun s -> s.Tir.Ir.s_name) f.Tir.Ir.f_slots
        in
        Alcotest.(check bool) "a gone" false (List.mem "a" slot_names);
        Alcotest.(check bool) "b kept" true (List.mem "b" slot_names);
        Alcotest.(check bool) "c kept" true (List.mem "c" slot_names));
    Alcotest.test_case "promotion preserves semantics" `Quick (fun () ->
        let src =
          "int main() { int s = 0; for (int i = 0; i < 17; i++) { char c = \
           (char)(i * 37); s += c; } return s & 255; }"
        in
        let r1 = Sanitizer.Driver.run base ~optimize:false src in
        let r2 = Sanitizer.Driver.run base ~optimize:true src in
        match r1.Sanitizer.Driver.outcome, r2.Sanitizer.Driver.outcome with
        | Vm.Machine.Exit a, Vm.Machine.Exit b ->
          Alcotest.(check int) "same result" a b
        | _ -> Alcotest.fail "runs failed");
    Alcotest.test_case "promotion reduces cycles" `Quick (fun () ->
        let src =
          "int main() { int s = 0; for (int i = 0; i < 1000; i++) s += i; \
           return s & 255; }"
        in
        let r1 = Sanitizer.Driver.run base ~optimize:false src in
        let r2 = Sanitizer.Driver.run base ~optimize:true src in
        Alcotest.(check bool) "O2 is faster" true
          (r2.Sanitizer.Driver.cycles < r1.Sanitizer.Driver.cycles));
    Alcotest.test_case "unsafe stack slots detected" `Quick (fun () ->
        let md =
          Sanitizer.Driver.compile
            "void fill(char *p) { p[0] = 1; }\n\
             int main() { char buf[8]; fill(buf); int plain = 3; \
             return plain; }"
        in
        let f = Option.get (Tir.Ir.find_func md "main") in
        let buf =
          List.find (fun s -> String.equal s.Tir.Ir.s_name "buf")
            f.Tir.Ir.f_slots
        in
        Alcotest.(check bool) "buf unsafe" true buf.Tir.Ir.s_unsafe);
  ]

(* --- substrate property tests -------------------------------------------------- *)

let substrate_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"memory load/store roundtrip" ~count:300
         QCheck.(triple (int_bound 0xFFFF) (int_range 1 8) int)
         (fun (off, size, v) ->
            let size = match size with 3 -> 2 | 5 | 6 | 7 -> 4 | s -> s in
            let mem = Vm.Memory.create () in
            let a = Vm.Layout46.heap_base + off in
            let mask =
              if size >= 8 then -1 else (1 lsl (size * 8)) - 1
            in
            Vm.Memory.store mem a size v;
            Vm.Memory.load mem a size = v land mask));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"page-straddling stores read back" ~count:100
         QCheck.(pair (int_range 4090 4100) int)
         (fun (off, v) ->
            let mem = Vm.Memory.create () in
            let a = Vm.Layout46.heap_base + off in
            Vm.Memory.store mem a 8 v;
            Vm.Memory.load mem a 8 = v));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"negative values survive memory" ~count:100
         QCheck.int
         (fun v ->
            let mem = Vm.Memory.create () in
            let a = Vm.Layout46.heap_base in
            Vm.Memory.store mem a 8 v;
            (* the VM models a 63-bit word *)
            Vm.Memory.load mem a 8 = v));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"allocator never hands out overlapping blocks"
         ~count:100
         QCheck.(small_list (int_range 1 200))
         (fun sizes ->
            let mem = Vm.Memory.create () in
            let t = Vm.Alloc.create mem in
            let blocks = List.map (fun s -> (Vm.Alloc.malloc t s, s)) sizes in
            let rec no_overlap = function
              | [] -> true
              | (a, sa) :: rest ->
                List.for_all
                  (fun (b, sb) -> a + sa <= b || b + sb <= a)
                  rest
                && no_overlap rest
            in
            no_overlap blocks));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"freed blocks are reused, never leaked forward"
         ~count:100
         QCheck.(int_range 1 64)
         (fun size ->
            let mem = Vm.Memory.create () in
            let t = Vm.Alloc.create mem in
            let a = Vm.Alloc.malloc t size in
            Vm.Alloc.free t a;
            let b = Vm.Alloc.malloc t size in
            a = b));
    Alcotest.test_case "copy handles overlap both directions" `Quick
      (fun () ->
         let mem = Vm.Memory.create () in
         let a = Vm.Layout46.heap_base in
         for i = 0 to 15 do
           Vm.Memory.store_byte mem (a + i) i
         done;
         Vm.Memory.copy mem ~src:a ~dst:(a + 4) ~len:8;
         Alcotest.(check int) "forward overlap" 3
           (Vm.Memory.load_byte mem (a + 7));
         for i = 0 to 15 do
           Vm.Memory.store_byte mem (a + i) i
         done;
         Vm.Memory.copy mem ~src:(a + 4) ~dst:a ~len:8;
         Alcotest.(check int) "backward overlap" 7
           (Vm.Memory.load_byte mem (a + 3)));
    Alcotest.test_case "residency accounting by region" `Quick (fun () ->
        let mem = Vm.Memory.create () in
        Vm.Memory.store_byte mem Vm.Layout46.heap_base 1;
        Vm.Memory.store_byte mem Vm.Layout46.shadow_base 1;
        Alcotest.(check int) "two pages" (2 * 4096)
          (Vm.Memory.resident_bytes mem);
        Alcotest.(check int) "one program page" 4096
          (Vm.Memory.program_bytes mem);
        Alcotest.(check int) "one sanitizer page" 4096
          (Vm.Memory.sanitizer_bytes mem));
    Alcotest.test_case "rand is deterministic per seed" `Quick (fun () ->
        let seq seed =
          let st = Vm.State.create ~seed () in
          List.init 10 (fun _ -> Vm.State.next_rand st)
        in
        Alcotest.(check (list int)) "same seed" (seq 7) (seq 7);
        Alcotest.(check bool) "different seeds differ" true
          (seq 7 <> seq 8));
    Alcotest.test_case "input server splits long lines" `Quick (fun () ->
        let t = Vm.Input.create () in
        Vm.Input.provide_line t "abcdefghij";
        (match Vm.Input.fgets t ~max:5 with
         | Some "abcd" -> ()
         | Some s -> Alcotest.failf "got %S" s
         | None -> Alcotest.fail "EOF");
        match Vm.Input.fgets t ~max:100 with
        | Some "efghij" -> ()
        | Some s -> Alcotest.failf "rest: %S" s
        | None -> Alcotest.fail "EOF on rest");
    Alcotest.test_case "packets split by recv max" `Quick (fun () ->
        let t = Vm.Input.create () in
        Vm.Input.provide_packet t "0123456789";
        Alcotest.(check string) "first" "0123" (Vm.Input.recv t ~max:4);
        Alcotest.(check string) "second" "456789" (Vm.Input.recv t ~max:64);
        Alcotest.(check string) "exhausted" "" (Vm.Input.recv t ~max:4));
    Alcotest.test_case "cycle budget enforced" `Quick (fun () ->
        let r =
          Sanitizer.Driver.run Sanitizer.Spec.none ~budget:10_000
            "int main() { int s = 0; for (int i = 0; i < 1000000; i++)              s += i; return s & 1; }"
        in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Fault { t_kind = Vm.Report.Out_of_cycles; _ } -> ()
        | o ->
          Alcotest.failf "expected cycle exhaustion, got %a"
            Vm.Machine.pp_outcome o);
  ]

(* --- last-page cache audit -------------------------------------------------- *)

(* [Vm.Memory]'s last-page cache holds the bytes objects of the most
   recently touched program page and sanitizer page.  Its safety rests
   on pages never being removed or replaced once materialized
   (free/realloc recycle address ranges; fault-injected table shrink
   only narrows a logical limit).
   These tests pin that invariant down against a model and against the
   operations the audit flagged as suspects. *)
let page_cache_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"cache coherent with a model across page-hopping ops"
         ~count:200
         QCheck.(small_list (triple (int_bound 40) (int_bound 8191) int))
         (fun ops ->
            let mem = Vm.Memory.create () in
            let model = Hashtbl.create 64 in
            let touched = Hashtbl.create 64 in
            (* spread accesses over 40 pages in four regions -- two
               program, two sanitizer (shadow, metadata) -- so both
               cache slots are evicted and refilled constantly *)
            let addr pg off =
              let base =
                match pg land 3 with
                | 0 -> Vm.Layout46.heap_base
                | 1 -> Vm.Layout46.globals_base
                | 2 -> Vm.Layout46.shadow_base
                | _ -> Vm.Layout46.meta_base
              in
              base + (pg * 8192) + off
            in
            let touch a = Hashtbl.replace touched (Vm.Layout46.page_of a) a in
            let coherent =
              List.for_all
                (fun (pg, off, v) ->
                   let a = addr pg off in
                   match v land 3 with
                   | 0 ->
                     Vm.Memory.store_byte mem a (v land 0xff);
                     Hashtbl.replace model a (v land 0xff);
                     touch a;
                     true
                   | 1 ->
                     Vm.Memory.invalidate_cache mem;
                     true
                   | _ ->
                     let expect =
                       match Hashtbl.find_opt model a with
                       | Some x -> x
                       | None -> 0
                     in
                     touch a;
                     Vm.Memory.load_byte mem a = expect)
                ops
            in
            (* residency is the set of pages ever touched, whichever
               slot served them *)
            let sanitizer =
              Hashtbl.fold
                (fun _ a n -> if a >= Vm.Layout46.shadow_base then n + 1 else n)
                touched 0
            in
            coherent
            && mem.Vm.Memory.resident_pages = Hashtbl.length touched
            && mem.Vm.Memory.sanitizer_pages = sanitizer));
    Alcotest.test_case "cache survives free/realloc recycling" `Quick
      (fun () ->
         let mem = Vm.Memory.create () in
         let t = Vm.Alloc.create mem in
         let a = Vm.Alloc.malloc t 64 in
         Vm.Memory.fill mem ~dst:a ~len:64 0xAA;
         (* cache now holds a's page; free and re-malloc must recycle
            the block without invalidating its backing store *)
         Vm.Alloc.free t a;
         let b = Vm.Alloc.malloc t 64 in
         Alcotest.(check int) "block recycled" a b;
         Vm.Memory.store_byte mem b 0x55;
         (* touch a distant page to evict, then come back *)
         Vm.Memory.store_byte mem Vm.Layout46.globals_base 1;
         Alcotest.(check int) "recycled byte reads back" 0x55
           (Vm.Memory.load_byte mem b);
         Alcotest.(check int) "old fill still backing the page" 0xAA
           (Vm.Memory.load_byte mem (b + 1));
         (* realloc at the libc level: malloc bigger + copy + free *)
         let c = Vm.Alloc.malloc t 4096 in
         Vm.Memory.copy mem ~src:b ~dst:c ~len:64;
         Vm.Alloc.free t b;
         Alcotest.(check int) "grown copy preserved data" 0x55
           (Vm.Memory.load_byte mem c));
    Alcotest.test_case "pages sharing a page-cache entry stay apart" `Quick
      (fun () ->
         (* every pair of 200 pages -- more than the cache has entries,
            so some pairs share one -- written and read back in
            alternation, in both areas *)
         List.iter
           (fun base ->
              let mem = Vm.Memory.create () in
              let addr k = base + (k * 4096) + (k land 7) in
              for i = 0 to 199 do
                for j = i + 1 to 199 do
                  Vm.Memory.store mem (addr i) 4 (i * 1000 + j);
                  Vm.Memory.store mem (addr j) 4 (j * 1000 + i);
                  if Vm.Memory.load mem (addr i) 4 <> i * 1000 + j
                  || Vm.Memory.load mem (addr j) 4 <> j * 1000 + i then
                    Alcotest.failf "pages %d and %d interfere" i j
                done
              done;
              Alcotest.(check int) "resident pages" 200
                mem.Vm.Memory.resident_pages;
              Vm.Memory.invalidate_cache mem;
              Alcotest.(check int) "after invalidation" (199 * 1000 + 198)
                (Vm.Memory.load mem (addr 199) 4))
           [ Vm.Layout46.heap_base; Vm.Layout46.meta_base ]);
    Alcotest.test_case "invalidate_cache is transparent" `Quick (fun () ->
        let mem = Vm.Memory.create () in
        let a = Vm.Layout46.heap_base in
        Vm.Memory.store mem a 8 0x1122334455667788;
        Vm.Memory.invalidate_cache mem;
        Alcotest.(check int) "load after invalidation" 0x1122334455667788
          (Vm.Memory.load mem a 8);
        Vm.Memory.invalidate_cache mem;
        Vm.Memory.store_byte mem (a + 1) 0xFF;
        Alcotest.(check int) "store after invalidation merges" 0x112233445566FF88
          (Vm.Memory.load mem a 8));
    Alcotest.test_case "fault-injected table shrink is repeatable" `Quick
      (fun () ->
         (* a stale cache would show up as run-to-run divergence once
            the metadata table degrades under table:N; two identical
            runs must agree byte for byte *)
         let src =
           "int main() {\n\
           \  int sum = 0;\n\
           \  for (int i = 0; i < 24; i++) {\n\
           \    char *p = malloc(32 + i);\n\
           \    for (int k = 0; k < 32; k++) p[k] = k + i;\n\
           \    sum = sum + p[31];\n\
           \    if (i % 3 == 0) { p = realloc(p, 128); sum = sum + p[0]; }\n\
           \    free(p);\n\
           \  }\n\
           \  printf(\"S:%d\\n\", sum);\n\
           \  return sum & 63;\n\
            }\n"
         in
         let go () =
           let fault =
             match Vm.Fault.parse "table:8" with
             | Ok s -> Vm.Fault.of_specs [ s ]
             | Error m -> Alcotest.fail m
           in
           let r =
             Sanitizer.Driver.run (Cecsan.sanitizer ()) ~fault
               ~policy:(Vm.Report.Recover
                          { max_reports = Vm.Report.default_max_reports })
               src
           in
           (Format.asprintf "%a" Vm.Machine.pp_outcome
              r.Sanitizer.Driver.outcome,
            r.Sanitizer.Driver.output)
         in
         let o1, out1 = go () and o2, out2 = go () in
         Alcotest.(check string) "outcome stable" o1 o2;
         Alcotest.(check string) "output stable" out1 out2);
  ]

let () =
  Alcotest.run "vm"
    [
      "arith", arith_tests;
      "control", control_tests;
      "memory", memory_tests;
      "strings", string_tests;
      "input", input_tests;
      "faults", fault_tests;
      "promote", promote_tests;
      "substrate", substrate_tests;
      "page cache", page_cache_tests;
    ]
