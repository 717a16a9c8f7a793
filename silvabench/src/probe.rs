//! The layer probe and the commissioning probe.
//!
//! `Worksite::tick`'s phases are private, so the traced `shift` run times
//! each layer from outside: a [`Probe`] owns its own copy of every
//! stateful layer object, built from the same configuration and seed as
//! the live worksite, and on every tick calls the same public functions
//! in tick order, fed with the live forwarder pose. Its world steps in
//! lockstep with the live one, and the probe checks that the workers
//! stand where the live world has them. The probe only reads the live
//! worksite, so the live run's output is unchanged by it.
//!
//! Some of the worksite's build settings are private: the radio
//! medium's transmit power and propagation, the node heights and the
//! forwarder's sensor ranges. The probe copies the values they have at
//! the commit this benchmark was written against. So that a later change
//! to them does not go unseen, [`Probe::delivery_matches`] compares the
//! probe's delivered shares with the live worksite's over a whole run.

use crate::trace::Tracer;
use silvasec::attacks::{AttackCampaign, AttackEngine, SideEffect};
use silvasec::channel::{HandshakePolicy, Initiator, Responder, Session};
use silvasec::comms::propagation::PropagationConfig;
use silvasec::comms::{Frame, Medium, MediumConfig, NodeId, ReceivedFrame};
use silvasec::crypto::schnorr::SigningKey;
use silvasec::ids::prelude::{NavObservation, RadioObservation, SensorObservation, WorksiteIds};
use silvasec::machines::drone::Drone;
use silvasec::machines::forwarder::Forwarder;
use silvasec::machines::fusion::fuse_detections_into;
use silvasec::machines::gnss::{GnssField, GnssReceiver};
use silvasec::machines::safety::SafetySupervisor;
use silvasec::machines::sensors::{
    detections_from_json, detections_to_json, Detection, PeopleSensor, SensorKind,
};
use silvasec::pki::{ComponentRole, KeyUsage, Subject, Validity};
use silvasec::sim::geom::Vec2;
use silvasec::sim::rng::SimRng;
use silvasec::sim::time::{SimDuration, SimTime};
use silvasec::sim::world::World;
use silvasec::sos::pki_setup::WorksitePki;
use silvasec::sos::{SitePkiTemplate, Worksite, WorksiteConfig};
use silvasec::telemetry::Label;

const LABEL_FW: Label = Label::from_static("forwarder-01");
const LABEL_BS: Label = Label::from_static("base-01");
const LABEL_FW_CAMERA: Label = Label::from_static("forwarder-01/camera");

/// Times the commissioning layers from outside for one PKI template:
/// verified boot of every commissioned machine's firmware, one Schnorr
/// sign and verify, and validation of a freshly issued certificate
/// chain. Returns whether every call succeeded.
pub fn commissioning_probe(
    tracer: &mut Tracer,
    template: &SitePkiTemplate,
    rng: &mut SimRng,
) -> bool {
    let mut ok = true;
    for cred in &template.credentials {
        let mut device = cred.device.clone();
        let report = tracer.span("secure-boot.verify", || device.boot(&cred.firmware));
        ok &= report.success;
    }
    let key = SigningKey::from_seed(&rng.next_seed());
    let message = rng.next_seed();
    let signature = tracer.span("crypto.sign", || key.sign(&message));
    let vk = key.verifying_key();
    ok &= tracer.span("crypto.verify", || vk.verify(&message, &signature).is_ok());

    let mut pki = WorksitePki::commission(rng, u64::MAX / 2);
    let cert = pki.root.issue_mut(
        &Subject::new("probe-01", ComponentRole::Forwarder),
        &vk,
        KeyUsage::AUTHENTICATION,
        Validity::new(0, u64::MAX / 2),
    );
    let store = &pki.store;
    ok &= tracer.span("pki.validate_chain", || {
        store.validate_chain(&[cert], 0, &[]).is_ok()
    });
    ok
}

/// Runs one timed handshake between two commissioned identities and
/// returns the (initiator, responder) session pair.
fn handshake(
    tracer: &mut Tracer,
    template: &SitePkiTemplate,
    initiator: usize,
    responder: usize,
    rng: &mut SimRng,
) -> (Session, Session) {
    let policy = HandshakePolicy::new(template.store.clone(), 0);
    let init_id = template.credentials[initiator].identity.clone();
    let resp_id = template.credentials[responder].identity.clone();
    let seeds = [
        rng.next_seed(),
        rng.next_seed(),
        rng.next_seed(),
        rng.next_seed(),
    ];
    tracer.span("channel.handshake", || {
        let (init, hello) = Initiator::start(init_id, seeds[0], seeds[1]);
        let (resp, reply) = Responder::respond(resp_id, &policy, &hello, seeds[2], seeds[3])
            .expect("commissioned peers accept each other");
        let (a, finished) = init.finish(&policy, &reply).expect("handshake finishes");
        let b = resp.complete(&finished).expect("handshake completes");
        (a, b)
    })
}

/// Largest gap, as an absolute share, between the probe's and the live
/// worksite's delivered shares of one link over a whole shift. Both
/// media draw losses from their own random streams, so the shares differ
/// by sampling noise only.
const DELIVERY_TOLERANCE: f64 = 0.02;

/// The medium configuration a worksite builds its radio network with
/// (a copy of the worksite's private settings).
fn medium_config(config: &WorksiteConfig) -> MediumConfig {
    MediumConfig {
        mfp_enabled: config.security.mfp,
        tx_power_dbm: 27.0,
        propagation: PropagationConfig {
            exponent: 2.6,
            per_tree_db: 0.3,
            ..PropagationConfig::default()
        },
        ..MediumConfig::default()
    }
}

/// The per-tick layer probe of the traced `shift` run.
pub struct Probe {
    world: World,
    medium: Medium,
    gnss: GnssField,
    attacks: AttackEngine,
    camera: PeopleSensor,
    lidar: PeopleSensor,
    drone: Drone,
    gnss_rx: GnssReceiver,
    supervisor: SafetySupervisor,
    forwarder: Forwarder,
    ids: WorksiteIds,
    fw_tx: Session,
    bs_rx: Session,
    drone_tx: Session,
    fw_rx: Session,
    node_bs: NodeId,
    node_fw: NodeId,
    node_drone: NodeId,
    rng: SimRng,
    tick: SimDuration,
    seq: u64,
    prev_deauth_rx: u64,
    prev_bs_assoc_rx: u64,
    prev_attempted: u64,
    prev_delivered: u64,
    candidates: Vec<u32>,
    cam: Vec<Detection>,
    lidar_seen: Vec<Detection>,
    drone_seen: Vec<Detection>,
    feed: Vec<Detection>,
    feed_parse: Vec<Detection>,
    fused: Vec<Detection>,
    feed_buf: Vec<u8>,
    open_buf: Vec<u8>,
    spare: Vec<Vec<u8>>,
    rx: Vec<ReceivedFrame>,
    report: String,
    /// Uplink reports sent and delivered.
    uplink_tally: [u64; 2],
    /// Drone-feed frames sent and delivered.
    feed_tally: [u64; 2],
    /// Whether every tick so far found the probe's workers where the
    /// live world has them.
    pub lockstep: bool,
    /// Whether every commissioning call of the probe's set-up succeeded.
    pub commissioned: bool,
}

impl Probe {
    /// Builds the probe's layer objects from `(config, seed)` and the
    /// live worksite's campaigns, timing the set-up layers (world
    /// generation, PKI template build, handshakes, commissioning).
    ///
    /// # Panics
    ///
    /// Panics if `config` has no drone or no secure channel: the probe
    /// mirrors the secure, drone-escorted tick only.
    #[must_use]
    pub fn new(
        tracer: &mut Tracer,
        config: &WorksiteConfig,
        seed: u64,
        campaigns: &[AttackCampaign],
    ) -> Self {
        assert!(
            config.drone_enabled && config.security.secure_channel,
            "the probe mirrors the secure drone-escorted tick"
        );
        let root = SimRng::from_seed(seed);
        let mut world = World::generate(&config.world, root.fork("world"));
        tracer.span("sim.worldgen", || {
            world.regenerate(&config.world, &root.fork("world"));
        });
        let template = tracer.span("pki.template_build", || {
            SitePkiTemplate::build(seed, config.drone_enabled)
        });
        tracer.add("pki.templates_built", 1.0);
        let mut rng = root.fork("layer-probe");
        let commissioned = commissioning_probe(tracer, &template, &mut rng);
        // Credentials are in commissioning order: forwarder, base
        // station, drone.
        let (fw_tx, bs_rx) = handshake(tracer, &template, 0, 1, &mut rng);
        let (drone_tx, fw_rx) = handshake(tracer, &template, 2, 0, &mut rng);

        // Nodes in the live worksite's order, so campaign targets
        // (0 = base station, 1 = forwarder) name the same radios.
        let mut medium = Medium::new(medium_config(config), root.fork("probe-medium"));
        let landing = config.world.landing_area;
        let node_bs = medium.add_node(landing.with_z(world.ground_at(landing) + 6.0));
        let node_fw = medium.add_node(landing.with_z(world.ground_at(landing) + 3.0));
        let node_drone = medium.add_node(landing.with_z(world.ground_at(landing) + 50.0));
        for n in [node_bs, node_fw, node_drone] {
            medium.associate(n);
        }
        let attacker_pos = Vec2::new(config.world.terrain.size_m * 0.5, 5.0);
        let attacker = medium.add_node(attacker_pos.with_z(world.ground_at(attacker_pos) + 2.0));
        let mut attacks = AttackEngine::new();
        attacks.set_attacker_node(attacker);
        for c in campaigns {
            attacks.add_campaign(c.clone());
        }

        let humans = world.humans().len().max(1);
        Probe {
            drone: Drone::new(landing, config.drone, &world),
            forwarder: Forwarder::new(landing, config.forwarder),
            world,
            medium,
            gnss: GnssField::new(),
            attacks,
            camera: PeopleSensor::new(SensorKind::Camera, 2.8),
            lidar: PeopleSensor::new(SensorKind::Lidar, 3.2),
            gnss_rx: GnssReceiver::default(),
            supervisor: SafetySupervisor::new(config.safety),
            ids: WorksiteIds::new(config.ids.clone()),
            fw_tx,
            bs_rx,
            drone_tx,
            fw_rx,
            node_bs,
            node_fw,
            node_drone,
            rng,
            tick: config.tick,
            seq: 0,
            prev_deauth_rx: 0,
            prev_bs_assoc_rx: 0,
            prev_attempted: 0,
            prev_delivered: 0,
            candidates: Vec::with_capacity(humans),
            cam: Vec::with_capacity(humans),
            lidar_seen: Vec::with_capacity(humans),
            drone_seen: Vec::with_capacity(humans),
            feed: Vec::with_capacity(humans),
            feed_parse: Vec::with_capacity(humans),
            fused: Vec::with_capacity(3 * humans),
            feed_buf: Vec::with_capacity(16 + 192 * humans),
            open_buf: Vec::with_capacity(256 + 192 * humans),
            spare: Vec::new(),
            rx: Vec::with_capacity(8),
            report: String::with_capacity(64),
            uplink_tally: [0; 2],
            feed_tally: [0; 2],
            lockstep: true,
            commissioned,
        }
    }

    /// Mirrors one tick of `site`, which has just ticked: steps the
    /// probe world to the live time, then calls each layer's public
    /// functions in tick order with the live forwarder pose.
    pub fn step(&mut self, tracer: &mut Tracer, site: &Worksite) {
        let outer = tracer.enter("probe.tick");
        let now = site.now();
        let live_fw = site.forwarder();
        let fw_pos = live_fw.position();
        let heading = live_fw.vehicle.heading;

        let world = &mut self.world;
        let tick = self.tick;
        tracer.span("sim.world_step", || world.step(tick));
        let live = site.world().humans();
        self.lockstep &= self.world.now() == now
            && self.world.humans().len() == live.len()
            && self
                .world
                .humans()
                .iter()
                .zip(live)
                .all(|(a, b)| a.position == b.position);

        let (attacks, medium, gnss) = (&mut self.attacks, &mut self.medium, &mut self.gnss);
        let effects = tracer.span("attacks.step", || attacks.step(now, medium, gnss));
        for effect in effects {
            match effect {
                SideEffect::BlindSensor {
                    machine_label,
                    health,
                } => self.degrade(&machine_label, health),
                SideEffect::RestoreSensor { machine_label } => self.degrade(&machine_label, 1.0),
                _ => {}
            }
        }

        // Perception: the forwarder's two sensors, then the drone's.
        let (world, rng, cand) = (&self.world, &mut self.rng, &mut self.candidates);
        let (camera, cam) = (&self.camera, &mut self.cam);
        tracer.span("machines.detect", || {
            camera.detect_into(world, fw_pos, heading, rng, cand, cam);
        });
        let (lidar, seen) = (&self.lidar, &mut self.lidar_seen);
        tracer.span("machines.detect", || {
            lidar.detect_into(world, fw_pos, heading, rng, cand, seen);
        });
        let drone = &mut self.drone;
        tracer.span("machines.drone_step", || drone.step(world, fw_pos, tick));
        let (drone, seen) = (&self.drone, &mut self.drone_seen);
        tracer.span("machines.detect", || {
            drone.detect_into(world, rng, cand, seen)
        });
        let detections = self.cam.len() + self.lidar_seen.len() + self.drone_seen.len();
        tracer.add("machines.detections", detections as f64);

        self.drone_feed(tracer, now);

        let (cam, lidar, feed, fused) = (&self.cam, &self.lidar_seen, &self.feed, &mut self.fused);
        tracer.span("machines.fuse", || {
            fuse_detections_into(&[cam.as_slice(), lidar.as_slice(), feed.as_slice()], fused);
        });
        let (supervisor, fused) = (&mut self.supervisor, &self.fused);
        let limit = tracer.span("machines.supervisor", || {
            supervisor.update(now, fw_pos, fused)
        });
        // The probe steps a copy of the live forwarder, so its motion
        // cost follows the live plan.
        self.forwarder.clone_from(live_fw);
        let (forwarder, world) = (&mut self.forwarder, &self.world);
        tracer.span("machines.forwarder_step", || {
            forwarder.step(world, limit, tick);
        });
        self.medium.set_position(
            self.node_fw,
            fw_pos.with_z(self.world.ground_at(fw_pos) + 3.0),
        );
        self.medium
            .set_position(self.node_drone, self.drone.body.position);

        self.uplink(tracer, now, fw_pos, live_fw.loads_delivered());
        self.observe_ids(tracer, now, fw_pos);
        tracer.exit(outer);
    }

    /// The delivered shares of the uplink and of the drone feed, each as
    /// (probe, live), over everything mirrored so far.
    #[must_use]
    pub fn delivered_shares(&self, site: &Worksite) -> [(f64, f64); 2] {
        let share = |[sent, delivered]: [u64; 2]| delivered as f64 / sent.max(1) as f64;
        let m = site.metrics();
        [
            (
                share(self.uplink_tally),
                share([m.messages_sent, m.messages_delivered]),
            ),
            (
                share(self.feed_tally),
                share([m.drone_feed_sent, m.drone_feed_delivered]),
            ),
        ]
    }

    /// Whether the probe's radio links deliver like the live worksite's,
    /// within [`DELIVERY_TOLERANCE`].
    #[must_use]
    pub fn delivery_matches(&self, site: &Worksite) -> bool {
        self.delivered_shares(site)
            .iter()
            .all(|(probe, live)| (probe - live).abs() <= DELIVERY_TOLERANCE)
    }

    /// Keeps a payload buffer for the next send; injected frames would
    /// otherwise grow the pool without bound.
    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < 8 {
            buf.clear();
            self.spare.push(buf);
        }
    }

    fn degrade(&mut self, machine_label: &str, health: f64) {
        if machine_label.starts_with("forwarder") {
            self.camera.degrade(health);
            self.lidar.degrade(health);
        } else if machine_label.starts_with("drone") {
            self.drone.sensor.degrade(health);
        }
    }

    /// Seals the drone feed (`from_drone`) or the uplink report with its
    /// session, sends it over the medium and drains the receiver's inbox
    /// into `self.rx`. Returns whether a record was sent.
    fn send(&mut self, tracer: &mut Tracer, now: SimTime, from_drone: bool) -> bool {
        let (src, dst) = if from_drone {
            (self.node_drone, self.node_fw)
        } else {
            (self.node_fw, self.node_bs)
        };
        let mut payload = self.spare.pop().unwrap_or_default();
        let (session, plaintext) = if from_drone {
            (&mut self.drone_tx, self.feed_buf.as_slice())
        } else {
            (&mut self.fw_tx, self.report.as_bytes())
        };
        let sealed = tracer.span("channel.seal", || {
            session.seal_into(plaintext, &mut payload)
        });
        if sealed.is_err() {
            self.recycle(payload);
            return false;
        }
        tracer.add("channel.records", 1.0);
        let link = if from_drone {
            &mut self.feed_tally
        } else {
            &mut self.uplink_tally
        };
        link[0] += 1;
        self.seq += 1;
        let frame = Frame::data(src, dst, payload).with_seq(self.seq);
        if self.seq.is_multiple_of(5) && self.attacks.wants_captures() {
            self.attacks.capture(frame.clone());
        }
        let (medium, world, rx) = (&mut self.medium, &self.world, &mut self.rx);
        let reclaimed = tracer.span("comms.deliver", || {
            let (_, reclaimed) =
                medium.transmit_env_reclaiming(world.stand(), world.weather(), src, frame, now);
            medium.drain_inbox_into(dst, rx);
            reclaimed
        });
        tracer.add("comms.deliveries", 1.0);
        // Injected and replayed frames land in the same inbox; only this
        // transmission counts as delivered.
        let seq = self.seq;
        if self
            .rx
            .iter()
            .any(|r| r.frame.seq == seq && r.frame.claimed_src == src)
        {
            tracer.add("comms.delivered", 1.0);
            let link = if from_drone {
                &mut self.feed_tally
            } else {
                &mut self.uplink_tally
            };
            link[1] += 1;
        }
        if let Some(buf) = reclaimed {
            self.recycle(buf);
        }
        true
    }

    fn drone_feed(&mut self, tracer: &mut Tracer, now: SimTime) {
        let (seen, buf) = (&self.drone_seen, &mut self.feed_buf);
        tracer.span("machines.feed_encode", || detections_to_json(seen, buf));
        tracer.add("machines.feed_bytes", self.feed_buf.len() as f64);
        if !self.send(tracer, now, true) {
            return;
        }
        let mut rx = std::mem::take(&mut self.rx);
        for r in rx.drain(..) {
            let (session, out) = (&mut self.fw_rx, &mut self.open_buf);
            if tracer
                .span("channel.open", || session.open_into(&r.frame.payload, out))
                .is_ok()
            {
                let (body, parsed) = (&self.open_buf, &mut self.feed_parse);
                if tracer.span("machines.feed_decode", || {
                    detections_from_json(body, parsed)
                }) {
                    std::mem::swap(&mut self.feed, &mut self.feed_parse);
                }
            }
            self.recycle(r.frame.payload);
        }
        self.rx = rx;
    }

    fn uplink(&mut self, tracer: &mut Tracer, now: SimTime, fw_pos: Vec2, loads: u64) {
        use std::fmt::Write as _;
        self.report.clear();
        let _ = write!(
            self.report,
            "pos={:.1},{:.1};loads={loads}",
            fw_pos.x, fw_pos.y
        );
        if !self.send(tracer, now, false) {
            return;
        }
        let mut rx = std::mem::take(&mut self.rx);
        for r in rx.drain(..) {
            let (session, out) = (&mut self.bs_rx, &mut self.open_buf);
            let _ = tracer.span("channel.open", || session.open_into(&r.frame.payload, out));
            self.recycle(r.frame.payload);
        }
        self.rx = rx;
    }

    fn observe_ids(&mut self, tracer: &mut Tracer, now: SimTime, fw_pos: Vec2) {
        let stats = self.medium.node_stats(self.node_fw);
        let (deauth_rx, noise) = (stats.deauth_rx, stats.noise_ewma.get());
        let deauth = deauth_rx - self.prev_deauth_rx;
        self.prev_deauth_rx = deauth_rx;
        let (attempted, delivered) = self
            .medium
            .link_stats(self.node_fw, self.node_bs)
            .map_or((0, 0), |l| (l.attempted, l.delivered));
        let (att, del) = (
            attempted - self.prev_attempted,
            delivered - self.prev_delivered,
        );
        (self.prev_attempted, self.prev_delivered) = (attempted, delivered);
        let bs_assoc = self.medium.node_stats(self.node_bs).assoc_rx;
        let unknown_assoc = bs_assoc - self.prev_bs_assoc_rx;
        self.prev_bs_assoc_rx = bs_assoc;

        let fix = self
            .gnss_rx
            .sample(&self.gnss, fw_pos, now, &mut self.rng)
            .map(|f| f.position);
        let dead_reckoned = Vec2::new(
            fw_pos.x + self.rng.normal(0.0, 0.4),
            fw_pos.y + self.rng.normal(0.0, 0.4),
        );
        let stand = self.world.stand();
        let trees = tracer.span("sim.trees_near_count", || {
            stand.count_trees_near_segment(fw_pos, fw_pos + Vec2::new(0.1, 0.0), 25.0)
        });
        tracer.add("sim.trees_counted", trees as f64);
        tracer.add("sim.trees_used", trees.min(60) as f64);
        let mut features = 0u32;
        for _ in 0..trees.min(60) {
            if self.rng.chance(0.85 * self.camera.health) {
                features += 1;
            }
        }

        let radio_bs = RadioObservation {
            node_label: LABEL_BS,
            at: now,
            noise_dbm: None,
            delivery_ratio: 1.0,
            deauth_frames: 0,
            auth_failures: 0,
            unknown_assoc_requests: unknown_assoc,
        };
        let radio_fw = RadioObservation {
            node_label: LABEL_FW,
            at: now,
            noise_dbm: noise,
            delivery_ratio: if att == 0 {
                1.0
            } else {
                del as f64 / att as f64
            },
            deauth_frames: deauth,
            auth_failures: 0,
            unknown_assoc_requests: 0,
        };
        let nav = NavObservation {
            machine_label: LABEL_FW,
            at: now,
            gnss_fix: fix,
            dead_reckoned,
            moving: self.forwarder.vehicle.speed_cap > 0.0,
        };
        let sensor = SensorObservation {
            sensor_label: LABEL_FW_CAMERA,
            at: now,
            feature_count: features,
        };
        let ids = &mut self.ids;
        let alerts = tracer.span("ids.observe", || {
            ids.observe_radio(&radio_bs).len()
                + ids.observe_radio(&radio_fw).len()
                + ids.observe_nav(&nav).len()
                + ids.observe_sensor(&sensor).len()
        });
        tracer.add("ids.alerts", alerts as f64);
    }
}
