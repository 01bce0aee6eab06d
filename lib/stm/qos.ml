(* Transaction quality-of-service: admission control under overload
   and the stuck-transaction watchdog.

   Deadlines and retry budgets live in the attempt machinery itself
   (Txn_desc carries the deadline; Commit_ladder enforces both at
   attempt boundaries); this module holds the controllers that sit
   *outside* any one transaction:

   - [Tenant]: per-tenant token-bucket admission and abort/read-mix
     EWMAs, so an antagonist's thrashing is charged to the antagonist;
   - [Brownout]: a hysteresis ladder fed by admission lag that
     degrades service stepwise, by tenant class;
   - [Shedder]: the class-blind, process-wide variant — a one-rung
     ladder fed by the abort rate that, when the system is thrashing,
     turns new optional work away at the door instead of letting it
     pile onto the contention that is causing the thrashing;
   - [Watchdog]: a supervisor that scans the per-domain watch slots
     ({!Txn_state.watch_list}) for attempts that have been running far
     longer than the observed p99 commit latency and kills them through
     the ordinary remote-kill path, escalating to breaking the serial
     commit gate when the gate holder itself is the stuck party.

   The three admission controllers are built from the same parts: one
   EWMA update, one CAS-claimed sampling gate, one token bucket and
   one ladder step.  All are off by default and their disabled fast
   paths are single atomic loads, per the repo-wide observability
   budget. *)

(* ------------------------------------------------------------------ *)
(* Shared parts                                                         *)

(* One EWMA update; the first sample ([have = false]) seeds it. *)
let ewma ~alpha ~have prev sample =
  if have then (alpha *. sample) +. ((1.0 -. alpha) *. prev) else sample

(* Time gate: [next_ns] holds the next [Clock.now_mono_ns] at which a
   sample is due.  Claimed by CAS, so exactly one caller per [period]
   seconds sees [true] and pays for that window's bookkeeping. *)
let claim_window next_ns ~period =
  let due = Atomic.get next_ns in
  let now = Clock.now_mono_ns () in
  now >= due
  && Atomic.compare_and_set next_ns due (now + int_of_float (period *. 1e9))

(* Token bucket: [capacity] burst, refilled at [rate] tokens per second
   of elapsed monotonic time, one token per admission. *)
module Bucket = struct
  type t = {
    capacity : float;
    rate : float;
    mu : Mutex.t;
    mutable tokens : float;
    mutable last_refill_ns : int;
  }

  let make ~capacity ~rate =
    {
      capacity;
      rate;
      mu = Mutex.create ();
      tokens = capacity;
      last_refill_ns = Clock.now_mono_ns ();
    }

  let take b =
    Mutex.lock b.mu;
    let now = Clock.now_mono_ns () in
    let dt = float_of_int (now - b.last_refill_ns) *. 1e-9 in
    b.last_refill_ns <- now;
    b.tokens <- Float.min b.capacity (b.tokens +. (Float.max 0.0 dt *. b.rate));
    let ok = b.tokens >= 1.0 in
    if ok then b.tokens <- b.tokens -. 1.0;
    Mutex.unlock b.mu;
    ok
end

(* ------------------------------------------------------------------ *)
(* Per-tenant QoS classes                                               *)

(* The shedder below is class-blind: one process-wide EWMA, one token
   bucket, every caller equal at the door.  Multi-tenant service needs
   the opposite: each tenant carries its own admission bucket and its
   own abort/read-mix EWMAs, so an antagonist's thrashing is charged
   to the antagonist — the primitive the brownout controller's
   class-aware degradation is built from. *)
module Tenant = struct
  type klass = Gold | Bronze

  let klass_name = function Gold -> "gold" | Bronze -> "bronze"

  type config = {
    rate : float;
        (* sustained admissions per second; <= 0 means uncapped *)
    burst : float;  (* token-bucket capacity *)
    alpha : float;  (* EWMA weight for the abort-rate/read-mix samples *)
    read_dominated_above : float;
        (* read-mix EWMA at or above which the tenant counts as
           read-dominated (eligible for RO routing under brownout) *)
  }

  let default_config =
    { rate = 0.0; burst = 32.0; alpha = 0.05; read_dominated_above = 0.75 }

  (* Monotonically increasing event counters, one cell each: tenants
     are few and their counters are bumped once per request, so the
     16-way striping Stats uses would be overkill here. *)
  type counters = {
    arrivals : int Atomic.t;
    admitted : int Atomic.t;
    committed : int Atomic.t;
    shed : int Atomic.t;
    timed_out : int Atomic.t;
    budget_exhausted : int Atomic.t;
    ro_routed : int Atomic.t;
    aborts : int Atomic.t;
  }

  type t = {
    name : string;
    klass : klass;
    cfg : config;
    c : counters;
    mu : Mutex.t;
    bucket : Bucket.t;
    mutable abort_ewma : float;
    mutable read_ewma : float;
    mutable have_sample : bool;
  }

  let make ?(config = default_config) ~name ~klass () =
    {
      name;
      klass;
      cfg = config;
      c =
        {
          arrivals = Atomic.make 0;
          admitted = Atomic.make 0;
          committed = Atomic.make 0;
          shed = Atomic.make 0;
          timed_out = Atomic.make 0;
          budget_exhausted = Atomic.make 0;
          ro_routed = Atomic.make 0;
          aborts = Atomic.make 0;
        };
      mu = Mutex.create ();
      bucket = Bucket.make ~capacity:config.burst ~rate:config.rate;
      abort_ewma = 0.0;
      read_ewma = 0.0;
      have_sample = false;
    }

  let name t = t.name
  let klass t = t.klass

  (* Token-bucket admission; one call per arriving request.  A refusal
     is the caller's cue to count a shed — the bucket itself stays
     outcome-agnostic. *)
  let admit t =
    Atomic.incr t.c.arrivals;
    let ok = t.cfg.rate <= 0.0 || Bucket.take t.bucket in
    if ok then Atomic.incr t.c.admitted;
    ok

  (* One finished episode's observations: the abort-rate sample is the
     episode's wasted-attempt share (a clean first-attempt commit is
     0.0; a deadline/budget failure is 1.0 — everything it did was
     waste), the read-mix sample is 1.0 for a pure-read episode. *)
  type outcome_kind = Committed | Shed | Timed_out | Budget_exhausted

  let ewma_update t ~abort_sample ~read_sample =
    Mutex.lock t.mu;
    let alpha = t.cfg.alpha and have = t.have_sample in
    t.abort_ewma <- ewma ~alpha ~have t.abort_ewma abort_sample;
    t.read_ewma <- ewma ~alpha ~have t.read_ewma read_sample;
    t.have_sample <- true;
    Mutex.unlock t.mu

  let note_outcome t kind ~read ~aborts =
    if aborts > 0 then ignore (Atomic.fetch_and_add t.c.aborts aborts);
    let read_sample = if read then 1.0 else 0.0 in
    match kind with
    | Committed ->
        Atomic.incr t.c.committed;
        ewma_update t
          ~abort_sample:
            (float_of_int aborts /. float_of_int (aborts + 1))
          ~read_sample
    | Shed -> Atomic.incr t.c.shed
    | Timed_out ->
        Atomic.incr t.c.timed_out;
        ewma_update t ~abort_sample:1.0 ~read_sample
    | Budget_exhausted ->
        Atomic.incr t.c.budget_exhausted;
        ewma_update t ~abort_sample:1.0 ~read_sample

  let note_ro_routed t = Atomic.incr t.c.ro_routed

  let abort_ewma t = if t.have_sample then Some t.abort_ewma else None
  let read_fraction t = if t.have_sample then Some t.read_ewma else None

  let read_dominated t =
    t.have_sample && t.read_ewma >= t.cfg.read_dominated_above

  type stats = {
    s_arrivals : int;
    s_admitted : int;
    s_committed : int;
    s_shed : int;
    s_timed_out : int;
    s_budget_exhausted : int;
    s_ro_routed : int;
    s_aborts : int;
    s_abort_ewma : float;
    s_read_fraction : float;
  }

  let stats t =
    {
      s_arrivals = Atomic.get t.c.arrivals;
      s_admitted = Atomic.get t.c.admitted;
      s_committed = Atomic.get t.c.committed;
      s_shed = Atomic.get t.c.shed;
      s_timed_out = Atomic.get t.c.timed_out;
      s_budget_exhausted = Atomic.get t.c.budget_exhausted;
      s_ro_routed = Atomic.get t.c.ro_routed;
      s_aborts = Atomic.get t.c.aborts;
      s_abort_ewma = t.abort_ewma;
      s_read_fraction = t.read_ewma;
    }
end

(* ------------------------------------------------------------------ *)
(* The brownout controller                                              *)

(* Stepwise graceful degradation under sustained overload.  The ladder
   is a pure state machine (qcheck drives it directly): pressure
   above [enter_above] for [dwell] consecutive samples climbs one
   level, below [exit_below] for [dwell] samples descends one level,
   and the dead band between them holds — so recovery is stable and
   the system never jumps levels.

   The levels, in escalation order:

   - [Normal]: no interference;
   - [Route_ro]: read-dominated tenants' pure-read requests are routed
     onto the abort-free [Stm.read_only] MVCC path — they stop
     competing for write locks entirely, at zero shed cost;
   - [Shed_bronze]: bronze tenants are turned away at the door; gold
     keeps its full service (and its RO routing);
   - [Shed_gold]: everything is turned away — the last-resort level.
     Deployments that treat gold admission as contractual cap the
     ladder at [Shed_bronze] via [max_level] (the opensystem bench
     does), which is exactly "shed bronze before gold, never gold".

   Pressure is fed by the open runner as admission lag — how far
   behind its *intended* arrival time a request started — normalized
   by [lag_budget].  Lag is the honest open-system overload signal:
   abort storms, convoys and parked queues all surface as lag, and it
   goes to zero as soon as degradation actually relieves the system. *)
module Brownout = struct
  type level = Normal | Route_ro | Shed_bronze | Shed_gold

  let level_index = function
    | Normal -> 0
    | Route_ro -> 1
    | Shed_bronze -> 2
    | Shed_gold -> 3

  let level_of_index = function
    | 0 -> Normal
    | 1 -> Route_ro
    | 2 -> Shed_bronze
    | _ -> Shed_gold

  let level_name = function
    | Normal -> "normal"
    | Route_ro -> "route-ro"
    | Shed_bronze -> "shed-bronze"
    | Shed_gold -> "shed-gold"

  module Ladder = struct
    type config = {
      enter_above : float;  (* pressure climbing one level *)
      exit_below : float;  (* pressure descending one level *)
      dwell : int;  (* consecutive samples before a move *)
      max_level : level;  (* escalation ceiling *)
    }

    let default_config =
      { enter_above = 1.0; exit_below = 0.4; dwell = 3; max_level = Shed_gold }

    type t = { level : level; up_streak : int; down_streak : int }

    let initial = { level = Normal; up_streak = 0; down_streak = 0 }

    (* One pressure observation.  Streaks reset whenever the sample
       falls outside their side of the band, so [dwell] means [dwell]
       *consecutive* samples — a flapping signal never moves the
       ladder.  Returns the successor and whether a level changed. *)
    let step cfg st ~pressure =
      if pressure > cfg.enter_above then begin
        let streak = st.up_streak + 1 in
        if
          streak >= cfg.dwell
          && level_index st.level < level_index cfg.max_level
        then
          ( {
              level = level_of_index (level_index st.level + 1);
              up_streak = 0;
              down_streak = 0;
            },
            true )
        else ({ st with up_streak = streak; down_streak = 0 }, false)
      end
      else if pressure < cfg.exit_below then begin
        let streak = st.down_streak + 1 in
        if streak >= cfg.dwell && level_index st.level > 0 then
          ( {
              level = level_of_index (level_index st.level - 1);
              up_streak = 0;
              down_streak = 0;
            },
            true )
        else ({ st with down_streak = streak; up_streak = 0 }, false)
      end
      else ({ st with up_streak = 0; down_streak = 0 }, false)
  end

  type config = {
    ladder : Ladder.config;
    alpha : float;  (* EWMA weight of the newest lag observation *)
    sample_window : float;  (* min seconds between ladder steps *)
    lag_budget : float;
        (* seconds of admission lag that count as pressure 1.0 *)
  }

  let default_config =
    {
      ladder = Ladder.default_config;
      alpha = 0.2;
      sample_window = 0.01;
      lag_budget = 0.005;
    }

  type t = {
    cfg : config;
    mu : Mutex.t;
    mutable ladder : Ladder.t;
    mutable ewma : float;
    mutable have : bool;
    mutable transitions : int;
    mutable peak : int;
    next_step_ns : int Atomic.t;
    level_v : int Atomic.t;  (* fast-path mirror of [ladder.level] *)
  }

  let make ?(config = default_config) () =
    {
      cfg = config;
      mu = Mutex.create ();
      ladder = Ladder.initial;
      ewma = 0.0;
      have = false;
      transitions = 0;
      peak = 0;
      next_step_ns = Atomic.make 0;
      level_v = Atomic.make 0;
    }

  let level t = level_of_index (Atomic.get t.level_v)
  let transitions t = t.transitions
  let peak_level t = level_of_index t.peak
  let pressure t = if t.have then Some t.ewma else None

  (* Apply one ladder observation; caller holds [mu]. *)
  let step_locked t =
    let ladder', changed = Ladder.step t.cfg.ladder t.ladder ~pressure:t.ewma in
    t.ladder <- ladder';
    if changed then begin
      let idx = level_index ladder'.Ladder.level in
      Atomic.set t.level_v idx;
      t.transitions <- t.transitions + 1;
      if idx > t.peak then t.peak <- idx;
      Proust_obs.Metrics.set_gauge "brownout_level" idx
    end

  (* One admission-lag observation (seconds), typically once per
     request.  The EWMA updates every call; the ladder only steps once
     per [sample_window], claimed by CAS so one caller pays. *)
  let note_lag t ~lag =
    Mutex.lock t.mu;
    let p = Float.max 0.0 lag /. t.cfg.lag_budget in
    t.ewma <- ewma ~alpha:t.cfg.alpha ~have:t.have t.ewma p;
    t.have <- true;
    Mutex.unlock t.mu;
    if claim_window t.next_step_ns ~period:t.cfg.sample_window then begin
      Mutex.lock t.mu;
      step_locked t;
      Mutex.unlock t.mu
    end

  (* Test hook: one pressure observation straight into the ladder,
     bypassing the EWMA and the time gate. *)
  let inject_pressure t p =
    Mutex.lock t.mu;
    t.ewma <- p;
    t.have <- true;
    step_locked t;
    Mutex.unlock t.mu

  type decision = Admit | Admit_ro | Shed

  let decision_name = function
    | Admit -> "admit"
    | Admit_ro -> "admit-ro"
    | Shed -> "shed"

  (* Class-aware routing for one admitted request.  [read_txn] says the
     request's transaction body is pure reads (the only shape the
     abort-free RO path can run). *)
  let plan t tenant ~read_txn =
    let route_ro () =
      if read_txn && Tenant.read_dominated tenant then Admit_ro else Admit
    in
    match level t with
    | Normal -> Admit
    | Route_ro -> route_ro ()
    | Shed_bronze ->
        if Tenant.klass tenant = Tenant.Bronze then Shed else route_ro ()
    | Shed_gold -> Shed
end

(* ------------------------------------------------------------------ *)
(* The overload shedder                                                 *)

(* Process-wide admission control on the abort rate: a one-rung
   brownout ladder (dwell 1, [enter_above = degrade_above],
   [exit_below = recover_below], capped at the first rung), so the
   Normal/Degraded machine gets the ladder's dead band for free: a rate
   wandering inside [(recover_below, degrade_above)] never flips it. *)
module Shedder = struct
  type config = {
    sample_window : float;
        (* seconds between abort-rate samples of the Stats counters *)
    alpha : float;  (* EWMA weight of the newest window *)
    degrade_above : float;  (* EWMA abort rate that enters Degraded *)
    recover_below : float;  (* EWMA abort rate that re-enters Normal *)
    min_window_attempts : int;
        (* windows with fewer attempt starts than this are discarded:
           a near-idle window's rate is mostly noise *)
    bucket_capacity : float;  (* token bucket burst size *)
    refill_per_s : float;  (* tokens per second while Degraded *)
  }

  let default_config =
    {
      sample_window = 0.01;
      alpha = 0.3;
      degrade_above = 0.7;
      recover_below = 0.4;
      min_window_attempts = 32;
      bucket_capacity = 64.0;
      refill_per_s = 2000.0;
    }

  let rung cfg =
    {
      Brownout.Ladder.enter_above = cfg.degrade_above;
      exit_below = cfg.recover_below;
      dwell = 1;
      max_level = Brownout.Route_ro;
    }

  (* Fast-path state: both words are read on every [admit] while
     enabled, written only on control-plane transitions. *)
  let on = Atomic.make false
  let degraded_v = Atomic.make false
  let next_sample_ns = Atomic.make 0

  (* Control block, mutated only under [lock] by the domain that won
     the sample window (or by tests via [inject_sample]). *)
  type ctl = {
    mutable cfg : config;
    mutable ewma : float;
    mutable have_ewma : bool;
    mutable last : Stats.snapshot;
    mutable ladder : Brownout.Ladder.t;
    mutable bucket : Bucket.t;
        (* consulted only while Degraded: a shaped trickle of
           admissions keeps the system making progress (and producing
           rate samples to recover with) instead of slamming shut *)
  }

  let lock = Mutex.create ()

  let ctl =
    {
      cfg = default_config;
      ewma = 0.0;
      have_ewma = false;
      last = Stats.read ();
      ladder = Brownout.Ladder.initial;
      bucket =
        Bucket.make ~capacity:default_config.bucket_capacity
          ~rate:default_config.refill_per_s;
    }

  let publish_gauges () =
    Proust_obs.Metrics.set_gauge "qos_state"
      (if Atomic.get degraded_v then 1 else 0);
    Proust_obs.Metrics.set_gauge "qos_abort_ewma_bp"
      (int_of_float (ctl.ewma *. 10_000.0))

  (* Apply one abort-rate observation to the EWMA and the ladder;
     caller holds [lock]. *)
  let apply_rate rate =
    ctl.ewma <- ewma ~alpha:ctl.cfg.alpha ~have:ctl.have_ewma ctl.ewma rate;
    ctl.have_ewma <- true;
    let ladder, changed =
      Brownout.Ladder.step (rung ctl.cfg) ctl.ladder ~pressure:ctl.ewma
    in
    ctl.ladder <- ladder;
    if changed then begin
      Atomic.set degraded_v (ladder.Brownout.Ladder.level <> Brownout.Normal);
      Stats.record_degraded_transition ()
    end;
    publish_gauges ()

  let sample_now () =
    Mutex.lock lock;
    let now = Stats.read () in
    let w = Stats.diff ctl.last now in
    ctl.last <- now;
    if w.Stats.starts >= ctl.cfg.min_window_attempts then
      apply_rate (float_of_int w.Stats.aborts /. float_of_int w.Stats.starts);
    Mutex.unlock lock

  let admit () =
    if not (Atomic.get on) then true
    else begin
      if claim_window next_sample_ns ~period:ctl.cfg.sample_window then
        sample_now ();
      (not (Atomic.get degraded_v)) || Bucket.take ctl.bucket
    end

  (* Back to Normal with a fresh EWMA, window and bucket; caller holds
     [lock]. *)
  let reset cfg =
    ctl.cfg <- cfg;
    ctl.ewma <- 0.0;
    ctl.have_ewma <- false;
    ctl.last <- Stats.read ();
    ctl.ladder <- Brownout.Ladder.initial;
    ctl.bucket <- Bucket.make ~capacity:cfg.bucket_capacity ~rate:cfg.refill_per_s;
    Atomic.set degraded_v false;
    publish_gauges ()

  let enable ?(config = default_config) () =
    Mutex.protect lock (fun () -> reset config);
    Atomic.set next_sample_ns
      (Clock.now_mono_ns () + int_of_float (config.sample_window *. 1e9));
    Atomic.set on true

  let disable () =
    Atomic.set on false;
    Mutex.protect lock (fun () -> reset ctl.cfg)

  let enabled () = Atomic.get on
  let degraded () = Atomic.get degraded_v
  let abort_ewma () = if ctl.have_ewma then Some ctl.ewma else None

  (* Test hook: feed one observation straight into the EWMA and the
     ladder without waiting for a real Stats window. *)
  let inject_sample rate = Mutex.protect lock (fun () -> apply_rate rate)
end

(* ------------------------------------------------------------------ *)
(* The stuck-transaction watchdog                                       *)

module Watchdog = struct
  type config = {
    interval : float;  (* seconds between scans *)
    p99_multiple : float;
        (* kill threshold as a multiple of the observed p99 commit
           latency (max across Metrics scopes) *)
    min_age : float;
        (* seconds: floor under the kill threshold, and the whole
           threshold when no commit latency has been observed yet *)
    breaker_multiple : float;
        (* gate-breaker threshold as a multiple of the kill threshold *)
  }

  let default_config =
    { interval = 0.01; p99_multiple = 16.0; min_age = 0.05; breaker_multiple = 4.0 }

  let kills_c = Atomic.make 0
  let breaks_c = Atomic.make 0
  let kills () = Atomic.get kills_c
  let breaks () = Atomic.get breaks_c

  (* The kill threshold adapts to the workload: a healthy long-running
     analytics transaction under a slow protocol is not "stuck" if
     commits of its ilk routinely take that long.  With metrics off (no
     samples) the static [min_age] floor is the whole threshold. *)
  let threshold_ns cfg =
    let floor_ns = int_of_float (cfg.min_age *. 1e9) in
    let p99 =
      List.fold_left
        (fun acc (s : Proust_obs.Metrics.scope_summary) ->
          if s.commit.Proust_obs.Histogram.count > 0 then
            max acc s.commit.Proust_obs.Histogram.p99
          else acc)
        0
        (Proust_obs.Metrics.scopes ())
    in
    if p99 = 0 then floor_ns
    else max floor_ns (int_of_float (cfg.p99_multiple *. float_of_int p99))

  (* One pass over the watch slots.  Escalation ladder:

     1. an attempt older than the threshold is killed through
        [Txn_desc.try_kill] — the same CAS a contention manager uses,
        so the victim unwinds through the ordinary abort path with all
        its lock hygiene.  [try_kill] refuses irrevocable descriptors,
        which is what keeps healthy serial-fallback attempts safe from
        false kills by construction;
     2. if the stuck attempt holds the serial commit gate and has aged
        past [breaker_multiple] thresholds, the kill evidently did not
        free the gate (e.g. the holder is wedged past its last liveness
        check, or died mid-publish): break the gate by force so the
        rest of the system stops convoying behind it.  This is a
        last-resort availability-over-purity move and is counted
        separately in [breaks]. *)
  let scan_once ?(config = default_config) () =
    let thr = threshold_ns config in
    let brk = int_of_float (config.breaker_multiple *. float_of_int thr) in
    let now = Clock.now_mono_ns () in
    List.iter
      (fun (ws : Txn_state.watch_slot) ->
        match Atomic.get ws.Txn_state.ws_desc with
        | None -> ()
        | Some d ->
            let age = now - Atomic.get ws.Txn_state.ws_start_ns in
            if age > thr && Txn_desc.is_active d then begin
              if Txn_desc.try_kill d then begin
                Stats.record_watchdog_kill ();
                Atomic.incr kills_c
              end
            end;
            if
              age > brk
              && (not d.Txn_desc.irrevocable)
              && Atomic.get Txn_state.commit_gate = d.Txn_desc.id
            then
              if Atomic.compare_and_set Txn_state.commit_gate d.Txn_desc.id 0
              then begin
                Stats.record_watchdog_kill ();
                Atomic.incr breaks_c
              end)
      (Txn_state.watch_list ())

  type t = { stop_flag : bool Atomic.t; dom : unit Domain.t }

  let start ?(config = default_config) () =
    Txn_state.set_watchdog true;
    let stop_flag = Atomic.make false in
    let dom =
      Domain.spawn (fun () ->
          while not (Atomic.get stop_flag) do
            scan_once ~config ();
            Unix.sleepf config.interval
          done)
    in
    { stop_flag; dom }

  let stop t =
    Atomic.set t.stop_flag true;
    Domain.join t.dom;
    Txn_state.set_watchdog false
end
