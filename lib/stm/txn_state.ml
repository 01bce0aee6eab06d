(* Transaction state: the mutable per-attempt record, its per-domain
   pool, and everything that inspects it (hooks, observability taps,
   fault injection, the leak auditor).

   Layering (see DESIGN.md): Rwset → Txn_state → Protocol →
   Commit_ladder → Stm.  This module owns the [t] record and the
   polymorphic [proto] dispatch slots; Protocol fills the slots,
   Commit_ladder drives attempts, Stm re-exports the public face. *)

(* The mode type is owned by [Mode] (the single authority for
   enumeration, parsing and the [PROUST_MODE] default); re-exported
   here with its constructors so protocol code keeps matching on bare
   [Lazy_lazy] etc. *)
type mode = Mode.t =
  | Lazy_lazy
  | Eager_lazy
  | Eager_eager
  | Serial_commit
  | Multi_version

let mode_name = Mode.to_string

type config = {
  mode : mode;
  cm : Contention.t;
  extend_reads : bool;
  max_attempts : int;
  abort_budget : int;
  serial_fallback : bool;
  fallback_after : int;
  backoff_sleep_after : int;
  backoff_sleep : float;
}

let default_config_v =
  ref
    {
      mode = Mode.from_env ();
      cm = Contention.passive ();
      extend_reads = false;
      max_attempts = 100_000;
      abort_budget = 16;
      serial_fallback = true;
      fallback_after = 64;
      backoff_sleep_after = 6;
      backoff_sleep = 1e-6;
    }

let set_default_config c = default_config_v := c
let get_default_config () = !default_config_v

type abort_reason = Conflict | Killed | Explicit | Timed_out

exception Abort_exn of abort_reason
exception Retry_exn
exception Too_many_attempts of int
exception Not_in_transaction

(* A [retry] with an empty read set can never be woken — no tvar
   exists whose change could unblock it — so the episode fails with a
   typed error instead of parking (or, formerly, [failwith]-ing). *)
exception Retry_no_reads

(* A write attempted inside a read-only transaction.  Typed (not an
   abort reason): the transaction is not retried — the program asked
   for something the snapshot path cannot do, and must hear about it. *)
exception Read_only_violation

type locked = Locked : 'a Tvar.t -> locked

(* How a committed intent reaches the shared store.  [Inline_publish]
   is the classic path: the committing transaction acquires, validates
   and publishes by itself.  [Group_commit] routes the intent through
   {!Publisher}'s flat-combining layer: the domain that wins the serial
   gate drains every pending publication in one gate acquisition.  A
   protocol field (not a config flag) so each mode states its
   publication discipline next to its locking discipline. *)
type publish_stage = Inline_publish | Group_commit

(* The commit protocol as data: one record of hot-path hooks per
   conflict-detection mode, selected once when an atomic block starts
   instead of branching on [cfg.mode] at every read/write/commit.  The
   first two fields are explicitly polymorphic so eager protocols can
   lock typed tvars at encounter time.  Kept here (with the record they
   act on) to break the Txn_state ↔ Protocol cycle; Protocol builds the
   four instances. *)
type t = {
  mutable rv : int;
  mutable tdesc : Txn_desc.t;
  mutable cfg : config;
  mutable proto : proto;
  rset : Rwset.Rlog.t;
  wset : Rwset.Wlog.t;
  locals : Rwset.Llog.t;
  mutable locked : locked list;
  mutable commit_locked_hooks : (unit -> unit) list;  (* LIFO storage *)
  mutable after_commit_hooks : (unit -> unit) list;  (* LIFO storage *)
  mutable abort_hooks : (unit -> unit) list;  (* LIFO storage = run order *)
  mutable durable_hooks : (int -> (unit -> unit) option) list;
      (* LIFO storage.  Run in the locked phase with the commit version
         (LSN); each may return a wait thunk the ladder runs after all
         locks and gates are released (group-commit flush waits must not
         extend the locked window). *)
  backoff : Backoff.t;
  gate_backoff : Backoff.t;
  mutable finished : bool;
  mutable ro : bool;
      (* read-only (snapshot) attempt: writes raise
         [Read_only_violation], reads take the proto's snapshot path,
         chaos may delay but never abort it *)
  mutable ro_reads : int;
      (* snapshot reads this attempt, batched into Stats at commit —
         a per-read striped bump measurably drags the RO hot path *)
}

and proto = {
  p_read : 'a. t -> 'a Tvar.t -> 'a;
      (** committed-state read missing the write set: the slow path
          (TL2 version check, or an MVCC snapshot lookup) *)
  p_pre_read : 'a. t -> 'a Tvar.t -> unit;
      (** before a committed-state read (visible-reader registration) *)
  p_pre_write : 'a. t -> 'a Tvar.t -> unit;
      (** before buffering a write (encounter-time locking) *)
  p_acquire : t -> unit;
      (** writing commit, before validation: lock the plan or the gate *)
  p_release_fail : t -> unit;
      (** failed commit: release what [p_acquire] took that [do_abort]
          will not (the serial gate; per-location locks are on
          [t.locked] and released by the abort path) *)
  p_release : t -> unit;  (** after publish: release the gate *)
  p_stage : publish_stage;
      (** which publication pipeline carries this mode's committed
          intents (see {!publish_stage}) *)
}

let null_proto =
  {
    (* Never runs: reads reach a proto only inside a live attempt, and
       every attempt installs a real protocol.  Raising (rather than
       returning something) makes a dispatch bug loud. *)
    p_read = (fun _ _ -> raise Not_in_transaction);
    p_pre_read = (fun _ _ -> ());
    p_pre_write = (fun _ _ -> ());
    p_acquire = (fun _ -> ());
    p_release_fail = (fun _ -> ());
    p_release = (fun _ -> ());
    p_stage = Inline_publish;
  }

let desc t = t.tdesc
let config t = t.cfg
let read_version t = t.rv
let check_open t = if t.finished then raise Not_in_transaction

let check_alive t =
  check_open t;
  if Txn_desc.is_aborted t.tdesc then raise (Abort_exn Killed)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                            *)

(* A transaction's deadline is an absolute [Clock.now_mono_ns] point
   carried on its descriptor (0 = none).  Checks are placed where an
   attempt can stall — attempt start (the ladder), read-set validation
   and lock-wait polls — so an expired transaction aborts at its next
   such point instead of retrying forever.  Irrevocable (serial
   fallback) attempts ignore deadlines past this point: nothing may
   abort them, so the episode times out only between attempts. *)

let deadline_expired t =
  let d = t.tdesc.Txn_desc.deadline_ns in
  d <> 0 && Clock.now_mono_ns () >= d

let check_deadline t =
  if (not t.tdesc.Txn_desc.irrevocable) && deadline_expired t then
    raise (Abort_exn Timed_out)

(* Hook registration deliberately accepts zombies ([check_open], not
   [check_alive]) on all three phases.  Commit hooks registered by a
   remotely-killed attempt never run (the attempt cannot commit), so
   accepting them is harmless — whereas raising mid-registration tears
   an eager base mutation from the bookkeeping around it: e.g. a
   [Committed_size] local whose init registers its flush via
   [after_commit] would otherwise abort [Eager_map.put] between the
   base insert and the inverse registration, leaking the insert. *)
let on_commit_locked t f =
  check_open t;
  t.commit_locked_hooks <- f :: t.commit_locked_hooks

let after_commit t f =
  check_open t;
  t.after_commit_hooks <- f :: t.after_commit_hooks

let on_commit_durable t f =
  check_open t;
  t.durable_hooks <- f :: t.durable_hooks

(* NB: [check_open], not [check_alive] — a transaction killed remotely
   between a base-structure mutation and this registration is a zombie
   whose effects still need undoing when [do_abort] runs the hooks.
   Raising here instead would drop the inverse on the floor and leak
   the mutation (found by the chaos harness: a [Kill] injected inside
   [Abstract_lock.apply]'s window broke sequential equivalence). *)
let on_abort t f =
  check_open t;
  t.abort_hooks <- f :: t.abort_hooks

(* ------------------------------------------------------------------ *)
(* Observability taps                                                   *)

(* Each site loads the obs gate word exactly once; with tracing and
   metrics both off, nothing else happens — that single load is the
   whole per-site budget the overhead microbench enforces.  Events are
   stamped with the global clock tick inside the already-slow enabled
   path. *)

let reason_name = function
  | Conflict -> "conflict"
  | Killed -> "killed"
  | Explicit -> "explicit"
  | Timed_out -> "timed-out"

let obs_emit ~txn kind =
  Proust_obs.Trace.emit ~tick:(Clock.now Clock.global) ~txn kind

let obs_attempt_start t ~n =
  let g = Proust_obs.Gate.get () in
  if g <> 0 then begin
    if g land Proust_obs.Gate.trace_bit <> 0 then
      obs_emit ~txn:t.tdesc.Txn_desc.id
        (Proust_obs.Trace.Attempt_start { attempt = n });
    if g land Proust_obs.Gate.metrics_bit <> 0 then
      Proust_obs.Metrics.on_attempt_start ()
  end

let obs_commit t =
  let g = Proust_obs.Gate.get () in
  if g <> 0 then begin
    if g land Proust_obs.Gate.trace_bit <> 0 then
      obs_emit ~txn:t.tdesc.Txn_desc.id Proust_obs.Trace.Commit;
    if g land Proust_obs.Gate.metrics_bit <> 0 then
      Proust_obs.Metrics.on_commit ()
  end

let obs_abort t reason =
  let g = Proust_obs.Gate.get () in
  if g <> 0 then begin
    if g land Proust_obs.Gate.trace_bit <> 0 then
      obs_emit ~txn:t.tdesc.Txn_desc.id
        (Proust_obs.Trace.Abort { reason = reason_name reason });
    if g land Proust_obs.Gate.metrics_bit <> 0 then
      Proust_obs.Metrics.on_abort ()
  end

(* A bounded wait on a held resource: time the backoff step and feed
   both the trace and the lock-wait histogram. *)
let obs_wait ~txn ~held_by backoff =
  let g = Proust_obs.Gate.get () in
  if g = 0 then Backoff.once backoff
  else begin
    let t0 = Proust_obs.Trace.now_ns () in
    Backoff.once backoff;
    let dt = Proust_obs.Trace.now_ns () - t0 in
    if g land Proust_obs.Gate.trace_bit <> 0 then
      obs_emit ~txn (Proust_obs.Trace.Lock_wait { held_by });
    if g land Proust_obs.Gate.metrics_bit <> 0 then
      Proust_obs.Metrics.add_lock_wait dt
  end

let obs_validate t ~ok =
  if Proust_obs.Gate.get () land Proust_obs.Gate.trace_bit <> 0 then
    obs_emit ~txn:t.tdesc.Txn_desc.id (Proust_obs.Trace.Validate { ok })

let obs_extend t ~ok =
  if Proust_obs.Gate.get () land Proust_obs.Gate.trace_bit <> 0 then
    obs_emit ~txn:t.tdesc.Txn_desc.id (Proust_obs.Trace.Extend { ok })

let obs_fallback ~token =
  if Proust_obs.Gate.get () land Proust_obs.Gate.trace_bit <> 0 then
    obs_emit ~txn:0 (Proust_obs.Trace.Fallback { token })

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)

(* Interpret a chaos draw for the running transaction.  Irrevocable
   (serial-fallback) attempts only honour the delay component: the
   whole point of the fallback is that nothing can abort it. *)
let chaos_point t point =
  if Fault.enabled () then
    (* Read-only snapshot attempts honour only the delay component
       too: the abort-free guarantee must hold under chaos. *)
    if t.tdesc.Txn_desc.irrevocable || t.ro then Fault.delay_only point
    else
      match Fault.check point with
      | None -> ()
      | Some (Fault.Delay n) -> Fault.spin n
      | Some Fault.Abort -> raise (Abort_exn Conflict)
      | Some Fault.Kill ->
          (* Simulate a remote kill: the "victim" notices at its next
             liveness check, exactly like a contention-manager abort. *)
          ignore (Txn_desc.try_kill t.tdesc)
      | Some Fault.Crash ->
          (* Crash draws only make sense inside the redo log, whose code
             consults [Fault.check] directly; at STM-side points serve
             the draw as a remote kill so chaos schedules that list
             [Crash] everywhere still exercise an abort path. *)
          ignore (Txn_desc.try_kill t.tdesc)
      | Some Fault.Wedge ->
          (* Stall in place until some remote party — in practice the
             QoS watchdog — kills this attempt, then surface the kill
             exactly as [check_alive] would. *)
          while not (Txn_desc.is_aborted t.tdesc) do
            Domain.cpu_relax ()
          done;
          raise (Abort_exn Killed)

(* ------------------------------------------------------------------ *)
(* Snapshot sampling                                                    *)

(* NOrec-style global commit lock for the Serial_commit mode: all
   writing commits serialize here instead of locking their write sets
   per location.  Declared here because snapshot sampling (below) must
   consult it; acquire/release live with the commit protocol. *)
let commit_gate = Atomic.make 0

(* In Serial_commit mode a committing writer holds no per-location
   locks while publishing: it ticks the clock under the gate, then
   writes values back.  A clock value sampled inside that window counts
   a tick whose writes are not yet visible, and a transaction adopting
   it as its snapshot can read the stale value yet still pass (or
   fast-path skip) commit validation — a lost update.  So snapshot
   timestamps are sampled seqlock-style against the gate: a clock read
   only becomes a snapshot once the gate is observed free *after* it,
   at which point every serial tick <= the sample has fully published.
   (Non-serial writers publish under per-location version-locks, which
   the read path and read-log validation already detect.) *)
(* Refinement for the flat-combining publisher: the unsafe window is
   active *publication*, not gate tenure.  A lingering combiner (see
   {!Publisher}) holds the gate between drains while every tick it has
   taken is fully published; it advertises those quiescent stretches
   here so transaction starts need not serialize behind the linger.
   Soundness is the same seqlock argument: the flag is set with a
   release store after the drain's stores, so a sample [v] that
   observes it (acquire) sees every publication of every tick <= [v],
   and any drain starting after the observation ticks strictly later
   than [v].  Inline gate holders never touch the flag, so for them
   the original gate-free rule applies unchanged. *)
let gate_quiescent = Atomic.make false

let snapshot_clock ~serial =
  if not serial then Clock.now Clock.global
  else
    let rec go () =
      let v = Clock.now Clock.global in
      if Atomic.get commit_gate = 0 || Atomic.get gate_quiescent then v
      else begin
        Domain.cpu_relax ();
        go ()
      end
    in
    go ()

let release_locks t =
  List.iter (fun (Locked tv) -> Tvar.unlock tv t.tdesc) t.locked;
  t.locked <- []

(* Snapshot the read set as (tvar, recorded-version) pairs before the
   attempt's logs are torn down, so the ladder can register on wait
   lists (or poll) after aborting a [retry]. *)
let read_watch_entries t : (Rwset.packed_tvar * int) list =
  let ws = ref [] in
  Rwset.Rlog.iter t.rset (fun tv ver -> ws := (tv, ver) :: !ws);
  !ws

(* ------------------------------------------------------------------ *)
(* Leak auditing                                                        *)

exception Lock_leak of string

(* Debug-gated invariant check run after every finished attempt: a
   transaction that has ended — committed or aborted, under any fault
   schedule — must not still own any tvar version-lock, the commit
   gate, or any externally registered resource (abstract locks).  Off
   by default; the disabled fast path is one atomic load. *)
let audit_on = Atomic.make false
let set_leak_audit b = Atomic.set audit_on b
let leak_audit_enabled () = Atomic.get audit_on
let leak_checks : (owner:int -> string option) list Atomic.t = Atomic.make []

let rec register_leak_check f =
  let cur = Atomic.get leak_checks in
  if not (Atomic.compare_and_set leak_checks cur (f :: cur)) then
    register_leak_check f

let audit_txn t =
  let d = t.tdesc in
  let leak fmt = Format.kasprintf (fun s -> raise (Lock_leak s)) fmt in
  if not t.finished then
    leak "txn#%d audit before the attempt ended" d.Txn_desc.id;
  let check_tvar uid (tv_owner : Txn_desc.t option) =
    match tv_owner with
    | Some o when o == d ->
        leak "txn#%d still owns the version-lock of tvar#%d" d.Txn_desc.id uid
    | _ -> ()
  in
  Rwset.Rlog.iter t.rset (fun tv _ver ->
      check_tvar tv.Tvar.uid (Tvar.current_owner tv));
  Rwset.Wlog.iter_tvs t.wset (fun uid tv ->
      check_tvar uid (Tvar.current_owner tv));
  (match t.locked with
  | [] -> ()
  | l ->
      leak "txn#%d retains %d entries in its locked list" d.Txn_desc.id
        (List.length l));
  if Atomic.get commit_gate = d.Txn_desc.id then
    leak "txn#%d still holds the serial commit gate" d.Txn_desc.id;
  List.iter
    (fun check ->
      match check ~owner:d.Txn_desc.id with
      | None -> ()
      | Some what -> leak "txn#%d leaked %s" d.Txn_desc.id what)
    (Atomic.get leak_checks)

let maybe_audit t = if Atomic.get audit_on then audit_txn t

(* Descriptor-pool bleed check: a record handed out for reuse must be
   indistinguishable from a fresh one.  Complements [audit_txn] (which
   checks externally visible resources): this one checks the pooled
   record itself. *)
let audit_pool_residue t =
  let leak fmt = Format.kasprintf (fun s -> raise (Lock_leak s)) fmt in
  if not t.finished then
    leak "pooled txn#%d reacquired while its attempt is still running"
      t.tdesc.Txn_desc.id;
  let r = Rwset.Rlog.size t.rset in
  if r <> 0 then leak "pooled descriptor retains %d read-log entries" r;
  let w = Rwset.Wlog.size t.wset in
  if w <> 0 then leak "pooled descriptor retains %d write-log entries" w;
  let l = Rwset.Llog.size t.locals in
  if l <> 0 then leak "pooled descriptor retains %d transaction-locals" l;
  if t.locked <> [] then leak "pooled descriptor retains a locked list";
  if
    t.commit_locked_hooks <> []
    || t.after_commit_hooks <> []
    || t.abort_hooks <> []
    || t.durable_hooks <> []
  then leak "pooled descriptor retains stale hooks"

(* ------------------------------------------------------------------ *)
(* The watchdog registry                                                *)

(* A supervisor domain cannot walk other domains' DLS, so each domain's
   pool slot doubles as a globally visible "watch slot": when the
   watchdog is armed, attempt hand-out stamps the slot with the new
   descriptor and a monotonic start time, and retirement clears it.
   The scanner reads descriptors through these slots and kills the ones
   whose age crossed its threshold via the ordinary [Txn_desc.try_kill]
   path.  With the watchdog disarmed the per-attempt cost is the single
   [watchdog_on] load. *)
type watch_slot = {
  ws_dom : int;
  ws_desc : Txn_desc.t option Atomic.t;
  ws_start_ns : int Atomic.t;
}

let watchdog_on = Atomic.make false
let set_watchdog b = Atomic.set watchdog_on b
let watchdog_enabled () = Atomic.get watchdog_on
let watch_slots : watch_slot list Atomic.t = Atomic.make []

let rec register_watch_slot ws =
  let cur = Atomic.get watch_slots in
  if not (Atomic.compare_and_set watch_slots cur (ws :: cur)) then
    register_watch_slot ws

let watch_list () = Atomic.get watch_slots

(* ------------------------------------------------------------------ *)
(* The per-domain descriptor pool                                       *)

(* One transaction record per domain, reset between attempts instead of
   reallocated: the log buffers, backoffs and the record itself survive
   across every attempt and every atomic block the domain runs.  Only
   [Txn_desc] stays freshly allocated per attempt — remote parties
   (contention managers, visible-reader lists, fault injection) hold
   references to it and CAS its status word, so its identity must not
   be recycled while they can still see it.

   [depth] guards reentrancy: hooks may start a new root transaction
   (e.g. an [after_commit] callback calling [atomically]) while the
   pooled record still belongs to the episode that is mid-commit, so
   nested episodes fall back to freshly allocated state. *)
type slot = {
  slot_txn : t;
  episode_backoff : Backoff.t;
  slot_watch : watch_slot;
  mutable depth : int;
  mutable reuses : int;
}

let fresh () =
  let cfg = !default_config_v in
  {
    rv = 0;
    tdesc = Txn_desc.create ~birth:0 ();
    cfg;
    proto = null_proto;
    rset = Rwset.Rlog.create ();
    wset = Rwset.Wlog.create ();
    locals = Rwset.Llog.create ();
    locked = [];
    commit_locked_hooks = [];
    after_commit_hooks = [];
    abort_hooks = [];
    durable_hooks = [];
    backoff = Backoff.create ();
    gate_backoff = Backoff.create ();
    finished = true;
    ro = false;
    ro_reads = 0;
  }

let pool : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let ws =
        {
          ws_dom = (Domain.self () :> int);
          ws_desc = Atomic.make None;
          ws_start_ns = Atomic.make 0;
        }
      in
      register_watch_slot ws;
      {
        slot_txn = fresh ();
        episode_backoff = Backoff.create ();
        slot_watch = ws;
        depth = 0;
        reuses = 0;
      })

(* An episode is one root call: a ladder of attempts sharing the
   pooled record (or fresh state when nested).  [ep_token] is the
   serial-irrevocable quiesce token the episode holds (0 = none); the
   ladder takes it on the fallback rung and hands it back when the
   episode ends. *)
type episode = {
  ep_txn : t option;
  ep_backoff : Backoff.t;
  mutable ep_token : int;
}

let begin_episode cfg =
  let s = Domain.DLS.get pool in
  s.depth <- s.depth + 1;
  if s.depth = 1 then begin
    Backoff.reconfigure s.episode_backoff ~sleep_after:cfg.backoff_sleep_after
      ~sleep:cfg.backoff_sleep;
    { ep_txn = Some s.slot_txn; ep_backoff = s.episode_backoff; ep_token = 0 }
  end
  else
    {
      ep_txn = None;
      ep_backoff =
        Backoff.create ~sleep_after:cfg.backoff_sleep_after
          ~sleep:cfg.backoff_sleep ();
      ep_token = 0;
    }

let end_episode () =
  let s = Domain.DLS.get pool in
  s.depth <- s.depth - 1

(* Hand out the episode's record for one attempt.  When auditing is on,
   prove the reset discipline first: the record must be exactly as
   [retire] left it.  A negative [birth] means "this attempt's
   snapshot": the first attempt of an episode is its own elder.

   A read-only ([ro]) attempt adopts a registered consistent snapshot,
   and the abort-free guarantee rests on the order:

   1. Register this domain's snapshot slot with a clock sample BEFORE
      adopting the final timestamp.  A committing writer trims version
      chains after ticking the clock; if its floor scan missed our
      registration, our later sample is >= its commit version, so the
      head it installed already serves our reads — the trimmed tail
      was never ours to need.  If the scan saw us, it kept every
      version at or below our timestamp that we can reach.

   2. Adopt [rv] through the serial-gate seqlock whatever the mode.
      In-flight lock-mode commits need no global wait: a commit at or
      below [rv] still holds every written tvar's version-lock until
      its publish lands, and [Protocol.read_ro] waits a held lock out
      before walking that tvar's chain — while a commit that takes a
      lock after our sample ticks strictly above [rv] and is invisible
      to the snapshot either way.  Serial-gate commits hold no per-tvar
      locks, but hold the gate from before their tick to after their
      publish (or advertise [gate_quiescent] once everything ticked is
      published), so the seqlock sample retires every serial commit
      the snapshot could see.  Hence every version <= rv is reachable
      and every read is of a committed, complete state: consistent by
      construction.

   [retire] deregisters the slot. *)
let attempt_txn ep cfg ~proto ~priority ~birth ~irrevocable ~deadline_ns
    ~ro =
  let t =
    match ep.ep_txn with
    | Some t ->
        let s = Domain.DLS.get pool in
        s.reuses <- s.reuses + 1;
        if Atomic.get audit_on then audit_pool_residue t;
        t
    | None -> fresh ()
  in
  if ro then Snapshots.register (Clock.now Clock.global);
  let rv = snapshot_clock ~serial:(ro || cfg.mode = Serial_commit) in
  let birth = if birth < 0 then rv else birth in
  t.rv <- rv;
  t.tdesc <- Txn_desc.create ~priority ~irrevocable ~deadline_ns ~birth ();
  t.cfg <- cfg;
  t.proto <- proto;
  t.ro <- ro;
  t.ro_reads <- 0;
  Backoff.reconfigure t.backoff ~sleep_after:cfg.backoff_sleep_after
    ~sleep:cfg.backoff_sleep;
  t.finished <- false;
  (* Publish the attempt to the watchdog scanner.  Only the pooled
     (root-episode) record has a slot; nested fresh records run inside a
     root attempt that is already being watched.  Start time is stamped
     before the descriptor so a scanner never pairs a new descriptor
     with a stale age. *)
  if Atomic.get watchdog_on then begin
    match ep.ep_txn with
    | Some _ ->
        let s = Domain.DLS.get pool in
        Atomic.set s.slot_watch.ws_start_ns (Clock.now_mono_ns ());
        Atomic.set s.slot_watch.ws_desc (Some t.tdesc)
    | None -> ()
  end;
  t

(* Scrub an ended attempt's state so the record can be handed out
   again.  Clearing (rather than reallocating) is what keeps the
   steady-state attempt allocation down to the descriptor itself. *)
let retire t =
  Rwset.Rlog.clear t.rset;
  Rwset.Wlog.clear t.wset;
  Rwset.Llog.clear t.locals;
  t.locked <- [];
  t.commit_locked_hooks <- [];
  t.after_commit_hooks <- [];
  t.abort_hooks <- [];
  t.durable_hooks <- [];
  t.proto <- null_proto;
  if t.ro then Snapshots.deregister ();
  t.ro <- false;
  t.ro_reads <- 0;
  (* Unpublish from the watchdog even if it was disarmed mid-attempt:
     keyed on the slot's own contents, not [watchdog_on]. *)
  let s = Domain.DLS.get pool in
  if s.slot_txn == t && Atomic.get s.slot_watch.ws_desc <> None then
    Atomic.set s.slot_watch.ws_desc None

(* Public introspection (tests, chaos suite). *)
let pool_reuses () = (Domain.DLS.get pool).reuses

let descriptor_pool_check () =
  let s = Domain.DLS.get pool in
  if s.depth = 0 then audit_pool_residue s.slot_txn

(* ------------------------------------------------------------------ *)
(* The domain-local current transaction (nesting flattening)            *)

let current_txn : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
