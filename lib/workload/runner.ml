(** Multi-domain throughput runner for the Figure 4 experiment.

    Each trial prefills the structure, splits the operation stream
    across [threads] domains and runs them under {!timed}: released
    through a spin barrier, timed from the first worker's start to the
    last worker's finish.  Trials are separated by a major GC
    ("garbage collecting in between to reduce jitter", §7); the first
    [warmup] trials are discarded.

    The core loop is generic over the operation type, so the same
    trial machinery drives maps, FIFO queues and priority queues;
    {!run_entry} dispatches on a {!Registry.entry}.  When a [label] is
    given, each worker domain enters that {!Proust_obs.Metrics} scope,
    so a run's commit/abort-retry/lock-wait latency histograms land
    under the implementation's name; the scope is reset after warmup
    and summarized into the result when metrics are enabled. *)

type result = {
  threads : int;
  spec : Workload.spec;
  mean_ms : float;
  stddev_ms : float;
  trials_ms : float list;
  throughput : float;  (** committed ops per second, from the mean *)
  stats : Stats.snapshot;  (** STM activity during the measured trials *)
  latency : Proust_obs.Metrics.scope_summary option;
      (** per-scope latency histograms for the measured trials; [None]
          unless a [label] was given and metrics were enabled *)
}

let barrier n =
  let c = Atomic.make 0 in
  fun () ->
    Atomic.incr c;
    while Atomic.get c < n do
      Domain.cpu_relax ()
    done

(* The closed-loop primitive every multi-domain measurement runs on.
   Workers time themselves: first-start to last-finish, on the
   monotonic clock (a wall-clock step mid-run would corrupt the
   window).  Timing from the spawning thread under-measures when there
   are fewer cores than domains (the workers can finish before the
   spawner runs again). *)
let timed ?label ~threads body =
  let enter = barrier threads in
  let started = Array.make threads 0.0 in
  let finished = Array.make threads 0.0 in
  let worker i () =
    Option.iter Proust_obs.Metrics.set_label label;
    enter ();
    started.(i) <- Clock.now_mono ();
    (* [Gc.minor_words] is per-domain in OCaml 5, so each worker owns
       its delta; the bulk-add into [Stats] makes the run's total
       divisible by committed transactions for a words-per-commit
       figure. *)
    let words0 = Gc.minor_words () in
    body i;
    Stats.add_minor_words (int_of_float (Gc.minor_words () -. words0));
    finished.(i) <- Clock.now_mono ()
  in
  List.init threads (fun i -> Domain.spawn (worker i))
  |> List.iter Domain.join;
  Array.fold_left max neg_infinity finished
  -. Array.fold_left min infinity started

(* One trial, generic over the structure ('ops) and operation ('op)
   types.  [streams i] yields domain [i]'s pre-generated operations. *)
let run_trial (type ops op) ?config ?label ~threads ~(spec : Workload.spec)
    ~(prefill : Stm.config option -> ops -> unit) ~(streams : int -> op array)
    ~(apply : ops -> Stm.txn -> op -> unit) (make_ops : unit -> ops) =
  let ops = make_ops () in
  prefill config ops;
  let streams = Array.init threads streams in
  let o = spec.ops_per_txn in
  timed ?label ~threads (fun i ->
      let stream = streams.(i) in
      let n = Array.length stream in
      let idx = ref 0 in
      while !idx < n do
        let stop = min n (!idx + o) in
        let start = !idx in
        Stm.atomically ?config (fun txn ->
            for j = start to stop - 1 do
              apply ops txn stream.(j)
            done);
        idx := stop
      done)

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev l =
  let m = mean l in
  sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) l))

(* Generic warmup/measure harness shared by all three structure kinds.
   [chaos] arms {!Fault} with the given policy for the measured trials
   (and disarms it afterwards), so a run can report STM behaviour under
   an adversarial schedule. *)
let run_gen ?config ?chaos ?chaos_seed ?(trials = 3) ?(warmup = 1) ?label
    ~threads ~spec ~prefill ~streams ~apply make_ops =
  let trial () =
    run_trial ?config ?label ~threads ~spec ~prefill ~streams ~apply make_ops
  in
  for _ = 1 to warmup do
    ignore (trial ());
    Gc.full_major ()
  done;
  (* Warmup latencies would pollute the measured histograms. *)
  Option.iter Proust_obs.Metrics.reset_scope label;
  (match chaos with
  | None -> ()
  | Some policy -> Fault.configure ?seed:chaos_seed policy);
  Fun.protect
    ~finally:(fun () -> if chaos <> None then Fault.disable ())
    (fun () ->
      let before = Stats.read () in
      let times =
        List.init trials (fun _ ->
            let dt = trial () in
            Gc.full_major ();
            dt)
      in
      let after = Stats.read () in
      let ms = List.map (fun s -> s *. 1000.0) times in
      {
        threads;
        spec;
        mean_ms = mean ms;
        stddev_ms = stddev ms;
        trials_ms = ms;
        throughput = float_of_int spec.Workload.total_ops /. mean times;
        stats = Stats.diff before after;
        latency =
          (match label with
          | Some l when Proust_obs.Metrics.enabled () ->
              Proust_obs.Metrics.read_scope l
          | _ -> None);
      })

(** [run ?config ?chaos ~threads ~spec make_ops] — the map benchmark.
    [make_ops] builds a fresh map per trial so trials are independent;
    prefill inserts [key_range / 2] random keys. *)
let run ?config ?chaos ?chaos_seed ?dist ?trials ?warmup ?label ~threads
    ~(spec : Workload.spec) make_ops =
  let prefill config ops =
    let rng = Random.State.make [| 0xbeef |] in
    for _ = 1 to spec.Workload.key_range / 2 do
      let k = Random.State.int rng spec.Workload.key_range in
      Stm.atomically ?config (fun txn ->
          ignore (ops.Proust_structures.Trait.Map.put txn k k))
    done
  in
  let per_thread = spec.Workload.total_ops / threads in
  run_gen ?config ?chaos ?chaos_seed ?trials ?warmup ?label ~threads ~spec
    ~prefill
    ~streams:(fun i -> Workload.stream ~seed:(i + 1) ?dist spec ~count:per_thread)
    ~apply:Workload.apply_op make_ops

(** FIFO-queue benchmark: prefill enqueues [key_range / 2] values. *)
let run_queue ?config ?chaos ?chaos_seed ?trials ?warmup ?label ~threads
    ~(spec : Workload.spec) make_ops =
  let prefill config ops =
    for v = 1 to spec.Workload.key_range / 2 do
      Stm.atomically ?config (fun txn ->
          ops.Proust_structures.Trait.Queue.enqueue txn v)
    done
  in
  let per_thread = spec.Workload.total_ops / threads in
  run_gen ?config ?chaos ?chaos_seed ?trials ?warmup ?label ~threads ~spec
    ~prefill
    ~streams:(fun i -> Workload.queue_stream ~seed:(i + 1) spec ~count:per_thread)
    ~apply:Workload.apply_qop make_ops

(** Priority-queue benchmark: prefill inserts [key_range / 2] random
    values. *)
let run_pqueue ?config ?chaos ?chaos_seed ?trials ?warmup ?label ~threads
    ~(spec : Workload.spec) make_ops =
  let prefill config ops =
    let rng = Random.State.make [| 0xbeef |] in
    for _ = 1 to spec.Workload.key_range / 2 do
      let v = Random.State.int rng spec.Workload.key_range in
      Stm.atomically ?config (fun txn ->
          ops.Proust_structures.Trait.Pqueue.insert txn v)
    done
  in
  let per_thread = spec.Workload.total_ops / threads in
  run_gen ?config ?chaos ?chaos_seed ?trials ?warmup ?label ~threads ~spec
    ~prefill
    ~streams:(fun i ->
      Workload.pqueue_stream ~seed:(i + 1) spec ~count:per_thread)
    ~apply:Workload.apply_pqop make_ops

(** Counter benchmark: prefill increments [key_range / 2] times so
    early decrements have headroom. *)
let run_counter ?config ?chaos ?chaos_seed ?trials ?warmup ?label ~threads
    ~(spec : Workload.spec) make_ops =
  let prefill config ops =
    for _ = 1 to spec.Workload.key_range / 2 do
      Stm.atomically ?config (fun txn ->
          ops.Proust_structures.Trait.Counter.incr txn)
    done
  in
  let per_thread = spec.Workload.total_ops / threads in
  run_gen ?config ?chaos ?chaos_seed ?trials ?warmup ?label ~threads ~spec
    ~prefill
    ~streams:(fun i ->
      Workload.counter_stream ~seed:(i + 1) spec ~count:per_thread)
    ~apply:Workload.apply_cop make_ops

(** Benchmark a {!Registry.entry} under the STM config its trait header
    requires; the metrics scope defaults to the entry's name. *)
let run_entry ?chaos ?chaos_seed ?dist ?trials ?warmup ?label ~threads ~spec
    (e : Registry.entry) =
  let label = Option.value label ~default:e.Registry.name in
  match e.Registry.target with
  | Registry.Map make ->
      run ?config:e.Registry.config ?chaos ?chaos_seed ?dist ?trials ?warmup
        ~label ~threads ~spec make
  | Registry.Queue make ->
      run_queue ?config:e.Registry.config ?chaos ?chaos_seed ?trials ?warmup
        ~label ~threads ~spec make
  | Registry.Pqueue make ->
      run_pqueue ?config:e.Registry.config ?chaos ?chaos_seed ?trials ?warmup
        ~label ~threads ~spec make
  | Registry.Counter make ->
      run_counter ?config:e.Registry.config ?chaos ?chaos_seed ?trials ?warmup
        ~label ~threads ~spec make

(** Share of transaction attempts that escalated to the
    serial-irrevocable fallback during the measured trials. *)
let fallback_rate (r : result) =
  if r.stats.Stats.starts = 0 then 0.0
  else float_of_int r.stats.Stats.fallbacks /. float_of_int r.stats.Stats.starts
