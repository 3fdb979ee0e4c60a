(* Harness.Supervise: crash quarantine for pool tasks.

   Every campaign/grid task runs inside [run]: exceptions that escape
   the task -- including asynchronous-looking ones such as
   [Stack_overflow] and [Out_of_memory], plus the injected fault
   classes [Vm.Fault.Injected_crash] and [Tir.Fuel.Exhausted] -- are
   caught, classified, retried under a deterministic count-based policy
   and, once the budget is spent, converted into a quarantine ledger
   entry instead of aborting the whole run.

   Determinism: the retry policy is seeded and count-based -- no wall
   clock, no randomized backoff.  A task that fails deterministically
   fails the same way on every attempt, so the ledger produced at -j1
   is byte-identical to the one produced at -j4 or after a
   checkpoint/resume.  The [attempt] index is passed to the task so a
   retry can (deterministically) vary its derived seed if it wants
   to. *)

type entry = {
  q_task : int;        (* task id within its campaign/grid *)
  q_seed : int;        (* the task's derived seed *)
  q_class : string;    (* exception class, from [classify] *)
  q_phase : string;    (* pipeline phase the failure escaped from *)
  q_attempts : int;    (* attempts made before quarantining *)
  q_detail : string;   (* printable exception payload *)
}

type policy = {
  max_retries : int;   (* extra attempts after the first failure *)
  retry_seed : int;    (* folded into attempt-varying derived seeds *)
}

let default_policy = { max_retries = 1; retry_seed = 0x5EED }

(* Exception -> (class, phase).  The phase is "run" unless the
   exception itself carries one (fuel exhaustion names the pipeline
   stage whose budget tripped). *)
let classify : exn -> string * string = function
  | Vm.Fault.Injected_crash _ -> "crash", "run"
  | Tir.Fuel.Exhausted { phase; _ } -> "fuel", phase
  | Stack_overflow -> "stack-overflow", "run"
  | Out_of_memory -> "out-of-memory", "run"
  | Failure _ -> "failure", "run"
  | _ -> "exn", "run"

type 'a outcome = {
  result : ('a, entry) result;
  retries : int;       (* re-attempts actually made (0 on first-try success) *)
}

let run ?(policy = default_policy) ~task ~seed (f : attempt:int -> 'a)
  : 'a outcome =
  let attempts = 1 + max policy.max_retries 0 in
  let rec go attempt =
    match f ~attempt with
    | v -> { result = Ok v; retries = attempt }
    | exception e ->
      if attempt + 1 < attempts then go (attempt + 1)
      else
        let cls, phase = classify e in
        let entry =
          { q_task = task; q_seed = seed; q_class = cls; q_phase = phase;
            q_attempts = attempt + 1; q_detail = Printexc.to_string e }
        in
        { result = Error entry; retries = attempt }
  in
  go 0

(* --- ledger serialization -------------------------------------------------- *)

(* One line per entry; [%S] on the detail keeps the line single-line
   and round-trippable through [Scanf].  This is the quarantine half of
   the checkpoint schema (DESIGN.md section 13).  The reader accepts
   only what the writer prints: [%d], [%x] and [%S] alone would also
   read "02", "+2", "00ff" or another escape of the same detail. *)
let entry_to_line e =
  Printf.sprintf "task=%d seed=%x attempts=%d class=%s phase=%s detail=%S"
    e.q_task e.q_seed e.q_attempts e.q_class e.q_phase e.q_detail

let entry_of_line line : entry option =
  match
    Scanf.sscanf line
      "task=%d seed=%x attempts=%d class=%s phase=%s detail=%S%!"
      (fun q_task q_seed q_attempts q_class q_phase q_detail ->
         { q_task; q_seed; q_class; q_phase; q_attempts; q_detail })
  with
  | e when String.equal (entry_to_line e) line -> Some e
  | _ | (exception _) -> None

let render fmt (entries : entry list) =
  if entries = [] then
    Format.fprintf fmt "  (no quarantined tasks)@."
  else begin
    Format.fprintf fmt "  %6s %16s %8s %-14s %-8s %s@." "task" "seed"
      "attempts" "class" "phase" "detail";
    List.iter
      (fun e ->
         Format.fprintf fmt "  %6d %16x %8d %-14s %-8s %s@." e.q_task
           e.q_seed e.q_attempts e.q_class e.q_phase e.q_detail)
      entries
  end
