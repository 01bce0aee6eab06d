(* The publication layer: how a committed intent reaches the shared
   store.

   Layering (see DESIGN.md): Rwset → Txn_state → Protocol → Publisher →
   Commit_ladder → Stm.  Each protocol names its pipeline via
   [proto.p_stage]; the ladder calls {!publish} once per commit and
   receives a [done_t] describing what is left to run owner-side.

   [Inline_publish] is the classic path: the committing transaction
   acquires its commit locks (or the serial gate), validates, ticks,
   publishes and releases — one transaction, one gate acquisition.
   Both pipelines share one post-linearization tail ({!linearized}).

   [Group_commit] is flat-combining group commit for the Serial_commit
   mode.  All writing commits in that mode serialize on the one global
   gate anyway, so the gate doubles as a combiner election: the domain
   that wins it drains a lock-free publication list and commits the
   whole batch of pending intents — each with its own validation,
   durable hooks and outcome — in a single gate acquisition, sharing
   one clock tick across compatible entries.  Losers publish a slot
   and spin locally on its outcome cell instead of fighting for the
   gate, which turns N gate acquisitions (and N cache-line storms)
   into one.

   Correctness notes for the shared batch tick:

   - Every batch entry sampled its snapshot [rv] while the gate was
     observed free ([Txn_state.snapshot_clock ~serial:true]), hence
     strictly before any tick taken under the current gate hold — so
     [wv > rv] for every entry and per-tvar versions move forward.

   - TL2's [rv + 1 = wv] validation fast path is only sound for the
     batch's *first* publisher: once any entry has published, a later
     entry at the same [wv] may have read state the earlier one just
     overwrote, so it must validate ([batch_dirty]).

   - Two batch entries writing the {e same} tvar must not share a
     version: a concurrent reader could then mix their states without
     read-log validation noticing (the recorded version matches either
     value).  The session tracks published tvar uids; an entry whose
     plan overlaps them takes a fresh tick.

   - Durable hooks need distinct LSNs in conflict order, so a durable
     entry always takes a fresh tick — and invalidates the cached
     batch tick, keeping later entries' versions monotone in drain
     order.

   Combiner crash-safety (the [Fault.Combine_handoff] chaos point, see
   test_chaos.ml): a draw fires per entry {e before} its slot is
   claimed.  [Kill]/[Crash] make the combiner abandon the rest of the
   batch: still-[Waiting] slots are pushed back on the publication
   list, and any waiter that observes the gate free with its slot
   undrained elects itself combiner, so no acked commit is lost and no
   waiter is stranded.  The gate-held invariant that makes
   self-election safe: a combiner drives every slot it claims to a
   terminal [Done] before releasing the gate, so a free gate implies
   no slot is [Claimed]. *)

open Txn_state

let run_hooks hooks =
  (* Run every hook even if one raises; re-raise the first failure once
     lock hygiene is restored by the caller. *)
  if hooks <> [] then begin
    let first_exn = ref None in
    List.iter
      (fun f -> try f () with e -> if !first_exn = None then first_exn := Some e)
      hooks;
    match !first_exn with None -> () | Some e -> raise e
  end

(* What the owner still has to do after its intent published: wake
   scans and after-commit hooks must run on the owner's domain (the
   obs metrics pair attempt-start/commit per domain, and after-commit
   callbacks may start new transactions there). *)
type done_t = {
  pd_after : (unit -> unit) list;  (* after-commit hooks, run order *)
  mutable pd_waits : (unit -> unit) list;  (* durable flush waits *)
  mutable pd_failure : exn option;  (* earliest hook failure *)
  pd_wrote : bool;  (* tvar writes published: scan wait lists *)
}

type outcome = Committed of done_t | Rejected of abort_reason

(* A waiter's entry on the publication list.  The state cell is the
   handoff protocol: the combiner CASes [Waiting → Claimed] (winning
   the right to commit the entry) and stores [Done]; the owner CASes
   [Waiting → Cancelled] to withdraw (deadline, remote kill,
   self-election). *)
type slot_state = Waiting | Claimed | Done of outcome | Cancelled
type slot = { sl_txn : t; sl_state : slot_state Atomic.t }

(* ------------------------------------------------------------------ *)
(* The combining knob                                                   *)

(* Group commit is on by default for Serial_commit; [PROUST_COMBINE=0]
   (or [off]/[false]/[inline]) keeps the legacy inline publisher, and
   [set_combining] flips it at runtime for A/B benching — mirroring
   the [PROUST_RETRY] pattern. *)
let enabled_v =
  Atomic.make
    (match Sys.getenv_opt "PROUST_COMBINE" with
    | Some ("0" | "off" | "OFF" | "false" | "inline") -> false
    | _ -> true)

let set_combining b = Atomic.set enabled_v b
let combining () = Atomic.get enabled_v

(* Combiner linger, the classic flat-combining tuning knob: after its
   own commit, the gate winner keeps polling the publication list
   before releasing, yielding the processor between polls so
   publishers that have not yet reached their [try_gate] can arrive
   and join the batch.  Without it, batches only form when an arrival
   lands inside the (sub-microsecond) drain window — on a machine with
   fewer cores than domains, effectively never, because a domain must
   be preempted mid-gate for anyone else to run.  The budget (seconds)
   bounds the idle gap between arrivals, not total tenure: a stream of
   arrivals keeps the combiner serving, a gap longer than the budget
   releases the gate, so it only needs to cover scheduling jitter.
   Default off: an uncontended commit pays nothing.
   [PROUST_COMBINE_LINGER] (seconds) or [set_combine_linger] turn it
   on for batching-sensitive workloads and the bench. *)
let linger_ns_v =
  Atomic.make
    (match Sys.getenv_opt "PROUST_COMBINE_LINGER" with
    | Some s -> (
        match float_of_string_opt s with
        | Some f when f > 0. -> int_of_float (f *. 1e9)
        | _ -> 0)
    | None -> 0)

let set_combine_linger s =
  Atomic.set linger_ns_v (if s > 0. then int_of_float (s *. 1e9) else 0)

let combine_linger () = float_of_int (Atomic.get linger_ns_v) *. 1e-9

(* The linger is armed only when the gate has recently been contended.
   A solo committer that wins the gate on arrival has nobody to wait
   for — lingering would add pure latency — so a publisher that loses
   [try_gate] stamps [last_contended_ns] (monotonic ns) when it queues
   a slot, and the combiner consults the stamp: no contention inside
   the window means no dwell.  Batches only ever form out of
   contention, so suppressing the linger in its absence costs nothing.
   Plain store: the stamp is a heuristic signal, racing writers all
   write "now". *)
let last_contended_ns = Atomic.make 0

(* How long one contention observation keeps the linger armed.  Well
   above any scheduling jitter, well below a workload phase change. *)
let contention_window_ns = 50_000_000

let note_gate_contention () =
  Atomic.set last_contended_ns (Clock.now_mono_ns ())

let gate_recently_contended () =
  let last = Atomic.get last_contended_ns in
  last > 0 && Clock.now_mono_ns () - last < contention_window_ns

(* The linger budget a combiner should actually use right now. *)
let effective_linger_ns () =
  let ns = Atomic.get linger_ns_v in
  if ns <> 0 && gate_recently_contended () then ns else 0

(* ------------------------------------------------------------------ *)
(* The publication list                                                 *)

(* A Treiber stack of slots; the combiner's drain exchanges the whole
   list and reverses it, so service order is FIFO per drain.  Abandoned
   entries are pushed back oldest-first, preserving approximate FIFO
   through the same exchange-and-reverse discipline. *)
let pub_list : slot list Atomic.t = Atomic.make []

let rec push_slot sl =
  let cur = Atomic.get pub_list in
  if not (Atomic.compare_and_set pub_list cur (sl :: cur)) then push_slot sl

(* Undrained entries currently on the list (tests: the orphan audit). *)
let pending_publications () =
  List.fold_left
    (fun n sl -> if Atomic.get sl.sl_state = Waiting then n + 1 else n)
    0 (Atomic.get pub_list)

(* ------------------------------------------------------------------ *)
(* Combine sessions                                                     *)

(* While a combiner drains a batch, structure-level replay logs may
   merge compatible intents across the batch's transactions (see
   Replay_log) instead of replaying each against the base structure.
   The session is the scope of that merging: a generation number the
   logs key their shared pending state by, plus the deferred flush
   thunks that apply the merged state.  Flushes run — in registration
   order — before the gate releases on every exit path, so an acked
   merged replay is never lost, even when chaos abandons the batch. *)
type session = { s_gen : int; mutable s_flushes : (unit -> unit) list }

let session_gen = Atomic.make 1

let session_key : session option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* The current combine session's generation, [None] outside a drain.
   Replay logs call this from locked-phase hooks, which the combiner
   runs on its own domain — domain-local state needs no fencing. *)
let session () =
  match Domain.DLS.get session_key with
  | None -> None
  | Some s -> Some s.s_gen

(* Defer [f] to the end of the current combine session; outside a
   session, run it now (the inline publisher's locked phase). *)
let defer_flush f =
  match Domain.DLS.get session_key with
  | None -> f ()
  | Some s -> s.s_flushes <- f :: s.s_flushes

(* ------------------------------------------------------------------ *)
(* The post-linearization tail (both publishers)                        *)

(* Durable hooks in registration order, each given the commit version
   as its LSN; a hook may hand back a flush-wait thunk.  The first
   failure is recorded and the rest still run.  A top-level loop, not a
   [List.iter] closure, so the common no-hook commit allocates
   nothing. *)
let rec run_durable d wv = function
  | [] -> d.pd_waits <- List.rev d.pd_waits
  | h :: rest ->
      (match h wv with
      | None -> ()
      | Some wait -> d.pd_waits <- wait :: d.pd_waits
      | exception e -> if d.pd_failure = None then d.pd_failure <- Some e);
      run_durable d wv rest

(* The attempt has linearized at [wv]: whatever the locked-phase hooks
   do, the write set publishes, the locks release, and the after-commit
   hooks still run — structure residue cleanup (e.g. pessimistic
   abstract-lock release) rides on the latter, so a raising locked hook
   must not starve them.  The earliest hook failure is captured into
   [pd_failure] and re-raised owner-side once hygiene is restored.

   Durable hooks run while the write locks (or the gate) are still
   held: the redo-log append for a conflicting successor cannot be
   ordered before ours, so append order agrees with conflict order.
   Their flush waits are deferred until every lock and gate is
   released — group commit means the wait spans other domains' appends
   and must not extend the locked window.  [Stats.record_commit] is
   striped and safe from a combiner's domain. *)
let linearized t ~wv ~wrote =
  Stats.record_commit ();
  t.finished <- true;
  let locked_hooks = List.rev t.commit_locked_hooks in
  let durable_hooks = List.rev t.durable_hooks in
  let d =
    {
      pd_after = List.rev t.after_commit_hooks;
      pd_waits = [];
      pd_failure = None;
      pd_wrote = wrote;
    }
  in
  t.commit_locked_hooks <- [];
  t.after_commit_hooks <- [];
  t.abort_hooks <- [];
  t.durable_hooks <- [];
  (match run_hooks locked_hooks with
  | () -> ()
  | exception e -> d.pd_failure <- Some e);
  run_durable d wv durable_hooks;
  Rwset.Wlog.publish_plan t.wset ~version:wv;
  release_locks t;
  d

(* ------------------------------------------------------------------ *)
(* Committing one batch entry (gate held, combiner's domain)            *)

(* Per-session version state: [bs_wv] caches the shared batch tick
   (0 = not yet taken), [bs_dirty] is set once anything has published,
   [bs_published] records published tvar uids for the same-tvar
   overlap check. *)
type batch_state = {
  mutable bs_wv : int;
  mutable bs_dirty : bool;
  bs_published : (int, unit) Hashtbl.t;
}

let fresh_batch_state () =
  { bs_wv = 0; bs_dirty = false; bs_published = Hashtbl.create 16 }

let plan_overlaps bs t =
  let hit = ref false in
  Rwset.Wlog.plan_iter_tv t.wset (fun tv ->
      if Hashtbl.mem bs.bs_published tv.Tvar.uid then hit := true);
  !hit

let note_published bs t =
  Rwset.Wlog.plan_iter_tv t.wset (fun tv ->
      Hashtbl.replace bs.bs_published tv.Tvar.uid ())

(* Commit one entry of the batch: the inline publisher's validate /
   linearize / hook / publish phases, minus acquisition and release
   (the combiner owns the gate) and minus the owner-side tail ([Done]
   hands that back through the slot).  Never raises: hook failures are
   captured into [pd_failure], everything else is a typed rejection
   the owner converts back into its normal abort path. *)
let commit_entry bs t =
  if Txn_desc.is_aborted t.tdesc then Rejected Killed
  else if (not t.tdesc.Txn_desc.irrevocable) && deadline_expired t then
    Rejected Timed_out
  else begin
    let has_durable = t.durable_hooks <> [] in
    let wv =
      if has_durable then begin
        (* Distinct LSNs in drain (= conflict) order; invalidate the
           cached tick so later entries re-tick and per-tvar versions
           stay monotone. *)
        let v = Clock.tick Clock.global in
        bs.bs_wv <- 0;
        v
      end
      else if plan_overlaps bs t then begin
        (* Same tvar already published this batch: sharing its version
           would let a concurrent reader mix the two states without
           validation noticing.  Fresh tick, and later entries adopt
           it. *)
        let v = Clock.tick Clock.global in
        bs.bs_wv <- v;
        v
      end
      else begin
        if bs.bs_wv = 0 then bs.bs_wv <- Clock.tick Clock.global;
        bs.bs_wv
      end
    in
    let valid =
      (* TL2 fast path only for the batch's first publisher — see the
         header note on [batch_dirty]. *)
      if wv > t.rv + 1 || bs.bs_dirty then begin
        let ok = Protocol.reads_valid t in
        obs_validate t ~ok;
        ok
      end
      else true
    in
    if not valid then Rejected Conflict
    else if not (Txn_desc.try_commit t.tdesc) then Rejected Killed
    else begin
      (* Linearized; the paired [Metrics.on_commit] runs owner-side
         when the outcome is consumed. *)
      let d = linearized t ~wv ~wrote:true in
      note_published bs t;
      bs.bs_dirty <- true;
      Committed d
    end
  end

(* ------------------------------------------------------------------ *)
(* The combiner                                                         *)

(* Bound the drain: a round is one exchange of the publication list,
   and a combiner serves at most this many before handing the gate
   back — fresh arrivals should not convoy behind one domain
   forever. *)
let drain_rounds = 4

(* Drain one batch (oldest first).  Returns [true] if a chaos draw
   abandoned the drain mid-batch — the remaining slots have been
   pushed back for a self-electing waiter. *)
let rec drain_batch bs ~committed = function
  | [] -> false
  | sl :: rest as remaining -> (
      (* The handoff chaos point, drawn before the claim — the window
         where a dying combiner could strand another domain's commit. *)
      match Fault.check Fault.Combine_handoff with
      | Some (Fault.Kill | Fault.Crash) ->
          (* Abandon: hand every undrained entry back to the list.
             Pushing oldest-first preserves FIFO through the next
             drain's exchange-and-reverse. *)
          List.iter push_slot remaining;
          true
      | draw ->
          (match draw with
          | Some (Fault.Delay n) -> Fault.spin n
          | Some Fault.Wedge ->
              (* A gate holder cannot wedge awaiting a remote kill —
                 it would deadlock the whole mode; serve as a delay. *)
              Fault.spin 64
          | _ -> ());
          let spurious = draw = Some Fault.Abort in
          if Atomic.compare_and_set sl.sl_state Waiting Claimed then begin
            let oc =
              if spurious then Rejected Conflict
              else
                match commit_entry bs sl.sl_txn with
                | oc -> oc
                | exception _ ->
                    (* [commit_entry] is non-raising by construction;
                       belt-and-braces so a bug rejects the entry
                       instead of stranding it in [Claimed]. *)
                    Rejected Conflict
            in
            (match oc with Committed _ -> incr committed | Rejected _ -> ());
            Atomic.set sl.sl_state (Done oc)
          end;
          (* CAS failure: the owner cancelled (deadline, kill, or it
             self-elected earlier) — nothing to do. *)
          drain_batch bs ~committed rest)

(* Commit [t] as the combiner (gate held on entry; released here).
   Returns [t]'s own [done_t] or raises its [Abort_exn] — exactly the
   inline publisher's contract — after draining the batch. *)
let combiner_commit t =
  Stats.record_combiner_election ();
  let sess =
    { s_gen = Atomic.fetch_and_add session_gen 1; s_flushes = [] }
  in
  Domain.DLS.set session_key (Some sess);
  let bs = fresh_batch_state () in
  let committed = ref 0 in
  let flush_failure = ref None in
  let own = ref (Rejected Killed) in
  Fun.protect
    ~finally:(fun () ->
      (* Merged replay flushes must land before the gate releases:
         once it is free, a new transaction may read the base
         structures, and acked entries' effects must be there. *)
      (match run_hooks (List.rev sess.s_flushes) with
      | () -> ()
      | exception e -> flush_failure := Some e);
      Domain.DLS.set session_key None;
      Atomic.set gate_quiescent false;
      Protocol.release_commit_gate t;
      if !committed > 0 then begin
        Stats.add_combined_commits !committed;
        if
          Proust_obs.Gate.get () land Proust_obs.Gate.metrics_bit <> 0
        then Proust_obs.Metrics.add_combiner_batch !committed
      end)
    (fun () ->
      own := commit_entry bs t;
      (match !own with Committed _ -> incr committed | Rejected _ -> ());
      let linger_ns = effective_linger_ns () in
      (* The budget bounds the gap between arrivals, not total tenure:
         it resets after every drain, so a busy combiner keeps serving
         while an idle one releases within one budget of its last
         batch.  Total tenure stays bounded by [drain_rounds]. *)
      let linger_until =
        ref (if linger_ns = 0 then 0 else Clock.now_mono_ns () + linger_ns)
      in
      let rounds = ref 0 in
      let abandoned = ref false in
      let serving = ref true in
      while !serving && (not !abandoned) && !rounds < drain_rounds do
        match Atomic.get pub_list with
        | [] ->
            (* Linger polls are not drain rounds: keep yielding until
               the budget runs out or an arrival starts a real round.
               The sleep is the point — on an oversubscribed machine
               it is what lets a would-be batch member run at all.
               Every tick taken so far has published, so advertise the
               gate as quiescent: transaction starts may sample their
               snapshots through the linger instead of serializing
               behind it (see [Txn_state.snapshot_clock]). *)
            if !linger_until <> 0 && Clock.now_mono_ns () < !linger_until
            then begin
              Atomic.set gate_quiescent true;
              Unix.sleepf 1e-6
            end
            else serving := false
        | _ ->
            Atomic.set gate_quiescent false;
            incr rounds;
            let batch = List.rev (Atomic.exchange pub_list []) in
            abandoned := drain_batch bs ~committed batch;
            (* A batch drained means the gate *is* contended: re-read
               the effective budget so a combiner that started solo
               lingers once arrivals materialize. *)
            let linger_ns = effective_linger_ns () in
            if linger_ns <> 0 then
              linger_until := Clock.now_mono_ns () + linger_ns
      done);
  match !own with
  | Committed d ->
      if d.pd_failure = None then d.pd_failure <- !flush_failure;
      d
  | Rejected r -> (
      (* A flush failure with our own entry rejected has no commit to
         ride back on; it is a real error and must surface rather than
         be swallowed by a silent retry. *)
      match !flush_failure with
      | Some e -> raise e
      | None -> raise (Abort_exn r))

(* ------------------------------------------------------------------ *)
(* The grouped publish (waiter side)                                    *)

let try_gate t = Atomic.compare_and_set commit_gate 0 t.tdesc.Txn_desc.id

(* Hand an outcome to its owner: the ladder's abort machinery expects
   [Abort_exn]; a commit finishes the owner-side metrics pairing. *)
let consume t = function
  | Committed d ->
      obs_commit t;
      d
  | Rejected r -> raise (Abort_exn r)

let publish_grouped t =
  chaos_point t Fault.Pre_validate;
  check_deadline t;
  if try_gate t then consume t (Committed (combiner_commit t))
  else begin
    (* Losing the gate is the observed-contention signal the linger
       arms on. *)
    note_gate_contention ();
    let sl = { sl_txn = t; sl_state = Atomic.make Waiting } in
    push_slot sl;
    Backoff.reset t.gate_backoff;
    let rec wait () =
      match Atomic.get sl.sl_state with
      | Done oc -> consume t oc
      | Claimed ->
          (* The combiner is committing us right now. *)
          Domain.cpu_relax ();
          wait ()
      | Cancelled ->
          (* Only this domain cancels, and it returns when it does. *)
          assert false
      | Waiting ->
          if Txn_desc.is_aborted t.tdesc then withdraw Killed
          else if (not t.tdesc.Txn_desc.irrevocable) && deadline_expired t
          then withdraw Timed_out
          else if Atomic.get commit_gate = 0 && try_gate t then begin
            (* Self-election: the gate is free yet our slot is
               undrained — the previous combiner finished between our
               push and its exchange, or chaos abandoned the batch.
               Re-examine the slot under the gate: a free gate means
               no claim was in flight, so it is [Waiting] or already
               [Done]. *)
            match Atomic.get sl.sl_state with
            | Done oc ->
                Protocol.release_commit_gate t;
                consume t oc
            | _ ->
                (* Withdraw the slot (a later drain must skip it) and
                   commit ourselves as the combiner. *)
                ignore (Atomic.compare_and_set sl.sl_state Waiting Cancelled);
                consume t (Committed (combiner_commit t))
          end
          else begin
            obs_wait ~txn:t.tdesc.Txn_desc.id
              ~held_by:(Atomic.get commit_gate) t.gate_backoff;
            wait ()
          end
    and withdraw reason =
      if Atomic.compare_and_set sl.sl_state Waiting Cancelled then
        raise (Abort_exn reason)
      else wait () (* lost the race: the combiner claimed us *)
    in
    wait ()
  end

(* ------------------------------------------------------------------ *)
(* The inline publish (the classic path)                                *)

(* A failed inline commit releases what [p_acquire] took that the
   abort path will not (the serial gate). *)
let fail_inline t reason =
  t.proto.p_release_fail t;
  raise (Abort_exn reason)

let publish_inline t ~has_writes =
  (* Phase 1: the protocol takes its commit locks — the plan in uid
     order, or the one global gate (Serial_commit). *)
  if has_writes then t.proto.p_acquire t;
  (match chaos_point t Fault.Pre_validate with
  | () -> ()
  | exception Abort_exn reason -> fail_inline t reason);
  (* Deadline check at the head of validation: a commit that locked
     its plan but whose deadline passed releases everything here
     rather than paying for validation it no longer wants.
     [check_deadline] is a no-op for irrevocable attempts. *)
  (match check_deadline t with
  | () -> ()
  | exception Abort_exn reason -> fail_inline t reason);
  (* Phase 2: validate the read set against the snapshot timestamp.
     A transaction whose writes immediately follow its snapshot
     (rv+1 = wv) cannot have missed a concurrent commit, per TL2.
     Durable transactions tick even without tvar writes: their
     redo-log records need distinct LSNs (a pessimistic lazy-map op
     can commit with an empty tvar write set yet still log). *)
  let has_durable = t.durable_hooks <> [] in
  let wv =
    if has_writes || has_durable then Clock.tick Clock.global else t.rv
  in
  if has_writes && wv > t.rv + 1 then begin
    let ok = Protocol.reads_valid t in
    obs_validate t ~ok;
    if not ok then fail_inline t Conflict
  end;
  (* Phase 3: linearize; phase 4: hooks and publish. *)
  if not (Txn_desc.try_commit t.tdesc) then fail_inline t Killed;
  obs_commit t;
  let d = linearized t ~wv ~wrote:has_writes in
  t.proto.p_release t;
  d

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

(* Irrevocable (serial-fallback) attempts never group: the quiesce
   token has already turned every other writer away, so there is no
   batch to join — and nothing may reject an irrevocable commit. *)
let publish t ~has_writes =
  if
    has_writes
    && t.proto.p_stage = Group_commit
    && (not t.tdesc.Txn_desc.irrevocable)
    && combining ()
  then publish_grouped t
  else publish_inline t ~has_writes
