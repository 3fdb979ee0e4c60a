(* A fixed-size pool of OCaml 5 domains with a shared work queue.

   The evaluation grid is embarrassingly parallel: every Driver.run is
   seeded and cost-model deterministic, and no two runs share mutable
   state (each gets its own Vm.State; the driver's compile cache is
   mutex-guarded and hands out clones).  So the pool only has to fan
   independent jobs out across cores and reassemble results in
   submission order -- parallel output is then bit-for-bit identical to
   sequential output by construction.

   [map]/[map_results] block the submitting thread until every task
   finished.  Tasks must not themselves call [map] on the same pool (a
   worker waiting on workers can deadlock a full queue); the guard bit
   [mapping] turns that mistake into an immediate [Invalid_argument]
   rather than a hang.  The harness only ever parallelizes the
   outermost loop of each experiment. *)

type task = unit -> unit

type t = {
  jobs : int;
  queue : task Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable shutting_down : bool;
  mutable domains : unit Domain.t list;
  mutable mapping : bool;   (* a map is in flight on this pool *)
}

let worker pool () =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.shutting_down do
      Condition.wait pool.work_ready pool.lock
    done;
    match Queue.take_opt pool.queue with
    | Some task ->
      Mutex.unlock pool.lock;
      task ();
      loop ()
    | None ->
      (* empty queue + shutting_down *)
      Mutex.unlock pool.lock
  in
  loop ()

let create ~jobs =
  if jobs < 0 then
    invalid_arg (Printf.sprintf "Pool.create: negative job count %d" jobs);
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  let pool =
    { jobs; queue = Queue.create (); lock = Mutex.create ();
      work_ready = Condition.create (); shutting_down = false;
      domains = []; mapping = false }
  in
  (* jobs = 1 runs everything on the submitter: no domains at all *)
  if jobs > 1 then
    pool.domains <-
      List.init (jobs - 1) (fun _ -> Domain.spawn (worker pool));
  pool

(* Idempotent and safe to call from [Fun.protect] after a submitter-side
   exception: the domain list is taken (and emptied) under the lock, so
   a second call -- or a concurrent one -- finds [] and joins nothing
   instead of double-joining. *)
let shutdown pool =
  Mutex.lock pool.lock;
  pool.shutting_down <- true;
  let domains = pool.domains in
  pool.domains <- [];
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  List.iter Domain.join domains

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let with_jobs jobs f =
  with_pool ~jobs (fun p -> f (if jobs > 1 then Some p else None))

(* Deterministic parallel map, total version: item i's result (or
   exception) goes to slot i, and the caller gets all n slots.  The
   sequential path wraps each call the same way, so [map_results] never
   aborts mid-list at any job count -- that is the property the
   supervision layer builds quarantine on. *)
let map_results (pool : t) (f : 'a -> 'b) (xs : 'a list)
  : ('b, exn) result list =
  let items = Array.of_list xs in
  let n = Array.length items in
  let seq () =
    List.map (fun x -> try Ok (f x) with e -> Error e) xs
  in
  if n = 0 then []
  else begin
    Mutex.lock pool.lock;
    if pool.mapping then begin
      Mutex.unlock pool.lock;
      invalid_arg
        "Pool.map: nested/concurrent map on the same pool (a worker \
         waiting on workers deadlocks; parallelize only the outermost \
         loop)"
    end;
    pool.mapping <- true;
    Mutex.unlock pool.lock;
    Fun.protect
      ~finally:(fun () ->
          Mutex.lock pool.lock;
          pool.mapping <- false;
          Mutex.unlock pool.lock)
      (fun () ->
         if pool.jobs <= 1 || n <= 1 then seq ()
         else begin
           let results : ('b, exn) result option array = Array.make n None in
           let remaining = Atomic.make n in
           let all_done = Condition.create () in
           let run i =
             let r = try Ok (f items.(i)) with e -> Error e in
             results.(i) <- Some r;
             if Atomic.fetch_and_add remaining (-1) = 1 then begin
               (* last task: wake the submitter *)
               Mutex.lock pool.lock;
               Condition.broadcast all_done;
               Mutex.unlock pool.lock
             end
           in
           Mutex.lock pool.lock;
           for i = 0 to n - 1 do
             Queue.add (fun () -> run i) pool.queue
           done;
           Condition.broadcast pool.work_ready;
           Mutex.unlock pool.lock;
           (* the submitter works the queue too, so jobs=N means N active
              domains, and a pool is never idle while its owner waits *)
           let rec drain () =
             Mutex.lock pool.lock;
             let task = Queue.take_opt pool.queue in
             Mutex.unlock pool.lock;
             match task with
             | Some task -> task (); drain ()
             | None -> ()
           in
           drain ();
           Mutex.lock pool.lock;
           while Atomic.get remaining > 0 do
             Condition.wait all_done pool.lock
           done;
           Mutex.unlock pool.lock;
           Array.to_list
             (Array.map
                (function Some r -> r | None -> assert false)
                results)
         end)
  end

(* Exception-propagating map on top of [map_results]: every task still
   runs to completion, then the lowest-index exception (the one a
   sequential run would have surfaced first) is re-raised. *)
let map (pool : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let rec unwrap = function
    | [] -> []
    | Ok v :: tl -> v :: unwrap tl
    | Error e :: _ -> raise e
  in
  unwrap (map_results pool f xs)

(* The harness entry points all take [?pool]; [None] means sequential. *)
let maybe_map (pool : t option) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match pool with Some p when p.jobs > 1 -> map p f xs | _ -> List.map f xs

let maybe_map_results (pool : t option) (f : 'a -> 'b) (xs : 'a list)
  : ('b, exn) result list =
  match pool with
  | Some p -> map_results p f xs
  | None -> List.map (fun x -> try Ok (f x) with e -> Error e) xs
