(* The generator's decision tape.

   Every random choice the program generator makes goes through [draw],
   which records the chosen value.  A fresh tape draws from a private
   splitmix PRNG (the same constants as [Vm.State.next_rand], so the
   whole repository shares one PRNG family); a replayed tape serves the
   prerecorded values instead and falls back to 0 once they run out.

   That replay totality is the contract the shrinker relies on: ANY int
   array is a valid tape.  Deleting a chunk or zeroing an entry yields a
   different but well-formed program, so delta debugging over the tape
   is delta debugging over generator decisions -- structure-aware
   shrinking without a grammar-specific shrinker (the Hypothesis /
   choice-sequence approach). *)

type t = {
  pre : int array;          (* replay prefix; [||] for a fresh tape *)
  mutable pos : int;        (* draws made so far *)
  mutable rng : int;        (* splitmix state, used past the prefix *)
  from_rng : bool;          (* fresh tape: exhausted prefix -> PRNG *)
  mutable recorded_rev : int list;
}

(* splitmix constants truncated to OCaml's 63-bit int, as in Vm.State *)
let splitmix z0 =
  let z = (z0 + 0x1E3779B97F4A7C15) land max_int in
  let r = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let r = (r lxor (r lsr 27)) * 0x14D049BB133111EB land max_int in
  (z, (r lxor (r lsr 31)) land max_int)

(* Splits a seed stream: [mix seed i] is the i-th child seed.  The
   campaign derives one independent seed per program index, so a run is
   reproducible per-seed at any job count. *)
let mix seed i =
  let z, a = splitmix (seed lxor (i * 0x1E3779B97F4A7C15 land max_int)) in
  let _, b = splitmix z in
  (a lxor (b lsr 17)) land max_int

let fresh ~seed =
  { pre = [||]; pos = 0; rng = seed; from_rng = true; recorded_rev = [] }

let replay choices =
  { pre = Array.copy choices; pos = 0; rng = 0; from_rng = false;
    recorded_rev = [] }

(* [draw t bound]: a value in [0, bound).  Records the reduced value, so
   recorded tapes replay exactly and shrunk values stay small. *)
let draw t bound =
  if bound <= 0 then invalid_arg "Tape.draw: bound must be positive";
  let raw =
    if t.pos < Array.length t.pre then t.pre.(t.pos)
    else if t.from_rng then begin
      let z, v = splitmix t.rng in
      t.rng <- z;
      v
    end
    else 0
  in
  let v = raw mod bound in
  t.pos <- t.pos + 1;
  t.recorded_rev <- v :: t.recorded_rev;
  v

let bool t = draw t 2 = 1

(* Full-range non-negative draw: the mutation engine uses the tape
   machinery as its deterministic PRNG and wants raw splitmix output
   for havoc values, not a bounded choice.  Recorded like any draw. *)
let rand t = draw t max_int

let pick t = function
  | [] -> invalid_arg "Tape.pick: empty list"
  | xs -> List.nth xs (draw t (List.length xs))

let recorded t = Array.of_list (List.rev t.recorded_rev)

let to_string tape =
  String.concat "," (List.map string_of_int (Array.to_list tape))

(* Only what [to_string] prints: a value that prints otherwise ("02",
   "+2", "1_2", "0x10", " 2") is rejected. *)
let of_string s =
  match
    if s = "" then [||]
    else Array.of_list (List.map int_of_string (String.split_on_char ',' s))
  with
  | tape when String.equal (to_string tape) s -> Some tape
  | _ | (exception Failure _) -> None
