(** Multi-domain throughput runner for the Figure 4 experiment: each
    trial prefills the structure, splits the stream across domains and
    runs them under {!timed}, which measures first-start to
    last-finish inside the workers (timing from the spawner
    under-measures when domains outnumber cores).  Trials are
    separated by a major GC; warmup trials are discarded.

    The same trial machinery drives maps, FIFO queues and priority
    queues; {!run_entry} dispatches on a {!Registry.entry}.  A [label]
    routes each worker into that {!Proust_obs.Metrics} scope (reset
    after warmup), and the scope's latency summary lands in the result
    when metrics are enabled. *)

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

(** [timed ?label ~threads body] spawns [threads] domains that meet at
    one spin barrier, then runs [body i] on domain [i]; it returns the
    window in seconds from the first worker's start to the last
    worker's finish, timed inside the workers.  Each worker adds its
    [Gc.minor_words] delta to {!Stats} and, given a [label], enters
    that {!Proust_obs.Metrics} scope.  Every fixed-work closed-loop
    bench measurement runs on this. *)
val timed : ?label:string -> threads:int -> (int -> unit) -> float

(** [run ?config ?chaos ~threads ~spec make_ops] — [make_ops] builds a
    fresh map per trial so trials are independent.  [chaos] arms
    {!Fault} with the given policy for the measured trials and disarms
    it afterwards; the result's stats then include the injected fault
    and serial-fallback counts for fallback-rate reporting. *)
val run :
  ?config:Stm.config ->
  ?chaos:(Fault.point * Fault.site) list ->
  ?chaos_seed:int ->
  ?dist:Workload.distribution ->
  ?trials:int ->
  ?warmup:int ->
  ?label:string ->
  threads:int ->
  spec:Workload.spec ->
  (unit -> (int, int) Proust_structures.Trait.Map.ops) ->
  result

(** FIFO-queue variant: [spec.write_fraction] is the enqueue share. *)
val run_queue :
  ?config:Stm.config ->
  ?chaos:(Fault.point * Fault.site) list ->
  ?chaos_seed:int ->
  ?trials:int ->
  ?warmup:int ->
  ?label:string ->
  threads:int ->
  spec:Workload.spec ->
  (unit -> int Proust_structures.Trait.Queue.ops) ->
  result

(** Priority-queue variant: [spec.write_fraction] is the insert
    share. *)
val run_pqueue :
  ?config:Stm.config ->
  ?chaos:(Fault.point * Fault.site) list ->
  ?chaos_seed:int ->
  ?trials:int ->
  ?warmup:int ->
  ?label:string ->
  threads:int ->
  spec:Workload.spec ->
  (unit -> int Proust_structures.Trait.Pqueue.ops) ->
  result

(** Counter variant: [spec.write_fraction] is the increment share; the
    rest splits between decrements and value reads. *)
val run_counter :
  ?config:Stm.config ->
  ?chaos:(Fault.point * Fault.site) list ->
  ?chaos_seed:int ->
  ?trials:int ->
  ?warmup:int ->
  ?label:string ->
  threads:int ->
  spec:Workload.spec ->
  (unit -> Proust_structures.Trait.Counter.ops) ->
  result

(** Benchmark a registry entry under the STM config its trait header
    requires; the metrics scope defaults to the entry's name. *)
val run_entry :
  ?chaos:(Fault.point * Fault.site) list ->
  ?chaos_seed:int ->
  ?dist:Workload.distribution ->
  ?trials:int ->
  ?warmup:int ->
  ?label:string ->
  threads:int ->
  spec:Workload.spec ->
  Registry.entry ->
  result

(** Share of attempts that escalated to the serial-irrevocable
    fallback during the measured trials. *)
val fallback_rate : result -> float
