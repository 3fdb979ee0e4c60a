(* Fuzz.Mutate: the tape mutation engine.

   Every operator maps (tape, optional partner tape) to a new int
   array.  Because Tape.replay is total — any int array is a valid tape,
   out-of-range values are reduced mod the draw bound and exhausted
   tapes fall back to 0 — mutation needs no grammar awareness: each
   operator is pure array surgery, and Gen turns whatever comes out into
   a type-checking, terminating MiniC program.

   Randomness comes from a caller-provided [Tape.t] used as a recorded
   splitmix PRNG (the whole repository's one PRNG family), so a mutation
   schedule is a pure function of its seed: the guided campaign seeds
   one engine per program index via [Tape.mix], making schedules
   deterministic and independent of pool interleaving.

   All produced values are non-negative: [Tape.draw]'s reduction is a
   plain [mod], so a negative entry would replay as a negative choice
   and crash the generator.  The operators only ever write draws from
   [Tape.draw]/[Tape.rand] or the interesting-value list, all >= 0. *)

type op = Splice | Havoc | Interesting | Truncate | Extend | Crossover

let all_ops = [ Splice; Havoc; Interesting; Truncate; Extend; Crossover ]

let op_name = function
  | Splice -> "splice"
  | Havoc -> "havoc"
  | Interesting -> "interesting"
  | Truncate -> "truncate"
  | Extend -> "extend"
  | Crossover -> "crossover"

(* Values that matter to the generator's draw sites: small choice
   indices (action selectors draw mod 12, class selectors mod 7), the
   boundary counts, and a couple of large values that stress the mod
   reduction. *)
let interesting =
  [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 11; 12; 15; 16; 24; 25; 31; 63; 100; 255;
     1023; 65535 |]

(* a nonempty working copy: operators index freely into the base *)
let base_of tape = if Array.length tape = 0 then [| 0 |] else Array.copy tape

let splice rng ~partner tape =
  let a = base_of tape in
  let b = base_of partner in
  let len = 1 + Tape.draw rng (Array.length b) in
  let src = Tape.draw rng (max 1 (Array.length b - len + 1)) in
  let dst = Tape.draw rng (Array.length a) in
  let n = min len (Array.length a - dst) in
  Array.blit b src a dst n;
  a

let havoc rng tape =
  let a = base_of tape in
  let hits = 1 + Tape.draw rng (max 1 (Array.length a / 4)) in
  for _ = 1 to hits do
    let i = Tape.draw rng (Array.length a) in
    a.(i) <- (if Tape.bool rng then Tape.draw rng 32 else Tape.rand rng)
  done;
  a

let interesting_sub rng tape =
  let a = base_of tape in
  let hits = 1 + Tape.draw rng 4 in
  for _ = 1 to hits do
    let i = Tape.draw rng (Array.length a) in
    a.(i) <- interesting.(Tape.draw rng (Array.length interesting))
  done;
  a

let truncate rng tape =
  let a = base_of tape in
  let keep = 1 + Tape.draw rng (Array.length a) in
  Array.sub a 0 keep

let extend rng tape =
  let a = base_of tape in
  let extra = 1 + Tape.draw rng 24 in
  Array.append a (Array.init extra (fun _ -> Tape.draw rng 32))

let crossover rng ~partner tape =
  let a = base_of tape in
  let b = base_of partner in
  let cut_a = Tape.draw rng (Array.length a + 1) in
  let cut_b = Tape.draw rng (Array.length b + 1) in
  Array.append (Array.sub a 0 cut_a)
    (Array.sub b cut_b (Array.length b - cut_b))

let apply op ~rng ?partner tape =
  let partner = match partner with Some p -> p | None -> tape in
  match op with
  | Splice -> splice rng ~partner tape
  | Havoc -> havoc rng tape
  | Interesting -> interesting_sub rng tape
  | Truncate -> truncate rng tape
  | Extend -> extend rng tape
  | Crossover -> crossover rng ~partner tape

(* Draw an operator, then apply it.  Partner-less engines degrade
   splice/crossover to self-splice (still productive: it reorders
   decision runs). *)
let mutate ~rng ?partner tape =
  let op = List.nth all_ops (Tape.draw rng (List.length all_ops)) in
  (op, apply op ~rng ?partner tape)
