//! Core application abstractions (§3.1 of the paper): a [`Stage`] is a unit
//! of computation implemented by a compute kernel; an [`Application`] is a
//! set of stages with an acyclic dependency [`TaskGraph`] processing a
//! streaming input; an [`AppModel`] is the non-executable description
//! (names + work profiles + graph) that the profiler, optimizer, and
//! simulator consume.
//!
//! The task graph — not its linearization — is the canonical structure:
//! every application carries one (a chain by default), stages are stored in
//! deterministic topological order, and [`TaskGraph::linearize`] survives as
//! the degenerate-chain fast path plus the canonical ordering used when an
//! app is built from out-of-order stages.

use std::fmt;
use std::sync::Arc;

use bt_rt::MAX_STAGES;
use bt_soc::WorkProfile;
use serde::{Deserialize, Serialize};

use crate::ParCtx;

/// A kernel callable on a mutable task payload with a parallelism context.
pub type KernelFn<P> = Arc<dyn Fn(&mut P, &ParCtx) + Send + Sync>;

/// A source loading the `seq`-th streaming input into a recycled payload.
pub type SourceFn<P> = Arc<dyn Fn(&mut P, u64) + Send + Sync>;

/// A factory allocating fresh task payloads (the TaskObject contents).
pub type FactoryFn<P> = Arc<dyn Fn() -> P + Send + Sync>;

/// One pipeline stage: a named compute kernel plus its resource profile.
pub struct Stage<P> {
    name: String,
    work: WorkProfile,
    kernel: KernelFn<P>,
}

impl<P> Stage<P> {
    /// Creates a stage.
    pub fn new(name: impl Into<String>, work: WorkProfile, kernel: KernelFn<P>) -> Stage<P> {
        Stage {
            name: name.into(),
            work,
            kernel,
        }
    }

    /// The stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stage's resource-demand profile.
    pub fn work(&self) -> &WorkProfile {
        &self.work
    }

    /// Executes the stage's kernel on a payload.
    pub fn run(&self, payload: &mut P, ctx: &ParCtx) {
        (self.kernel)(payload, ctx);
    }

    /// The kernel function (shared with dispatcher threads).
    pub fn kernel(&self) -> KernelFn<P> {
        Arc::clone(&self.kernel)
    }
}

impl<P> Clone for Stage<P> {
    fn clone(&self) -> Stage<P> {
        Stage {
            name: self.name.clone(),
            work: self.work.clone(),
            kernel: Arc::clone(&self.kernel),
        }
    }
}

impl<P> fmt::Debug for Stage<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stage").field("name", &self.name).finish()
    }
}

/// A streaming application: stages in topological order, their dependency
/// graph, plus the machinery to allocate and refill task payloads.
pub struct Application<P> {
    name: String,
    stages: Vec<Stage<P>>,
    graph: TaskGraph,
    factory: FactoryFn<P>,
    source: SourceFn<P>,
}

impl<P> Application<P> {
    /// Creates a linear-chain application (stage `i` feeds stage `i + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or lists more than [`MAX_STAGES`].
    pub fn new(
        name: impl Into<String>,
        stages: Vec<Stage<P>>,
        factory: FactoryFn<P>,
        source: SourceFn<P>,
    ) -> Application<P> {
        assert!(
            !stages.is_empty(),
            "an application needs at least one stage"
        );
        let graph = TaskGraph::chain(stages.len());
        Application {
            name: name.into(),
            stages,
            graph,
            factory,
            source,
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stages in pipeline order.
    pub fn stages(&self) -> &[Stage<P>] {
        &self.stages
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The stage-dependency graph, indexed in the stored (topological)
    /// stage order. A chain for applications built with
    /// [`Application::new`].
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Allocates a fresh task payload.
    pub fn new_payload(&self) -> P {
        (self.factory)()
    }

    /// Loads streaming input `seq` into a payload.
    pub fn load_input(&self, payload: &mut P, seq: u64) {
        (self.source)(payload, seq)
    }

    /// The payload factory (shared with the pipeline runtime).
    pub fn factory(&self) -> FactoryFn<P> {
        Arc::clone(&self.factory)
    }

    /// The input source (shared with the pipeline runtime).
    pub fn source(&self) -> SourceFn<P> {
        Arc::clone(&self.source)
    }

    /// Runs all stages sequentially on one input — the reference execution
    /// used by correctness tests and the paper's single-PU baselines.
    pub fn run_sequential(&self, payload: &mut P, seq: u64, ctx: &ParCtx) {
        self.load_input(payload, seq);
        for stage in &self.stages {
            stage.run(payload, ctx);
        }
    }

    /// Builds an application from stages given in *arbitrary* order plus
    /// their dependency graph. Stages are stored in the deterministic
    /// topological order and the graph is kept (re-indexed to that order)
    /// as the application's canonical structure, so fork/join shapes
    /// survive into the model instead of being flattened away.
    ///
    /// `graph` indexes into `stages` as provided; the resulting
    /// application's stage order is the deterministic topological order.
    ///
    /// # Errors
    ///
    /// Returns [`CyclicGraphError`] (reporting the offending cycle) if the
    /// dependencies contain a cycle.
    ///
    /// # Panics
    ///
    /// Panics if `graph.len() != stages.len()` or `stages` is empty.
    pub fn from_task_graph(
        name: impl Into<String>,
        stages: Vec<Stage<P>>,
        graph: &TaskGraph,
        factory: FactoryFn<P>,
        source: SourceFn<P>,
    ) -> Result<Application<P>, CyclicGraphError> {
        assert_eq!(graph.len(), stages.len(), "graph/stage count mismatch");
        assert!(
            !stages.is_empty(),
            "an application needs at least one stage"
        );
        let order = graph.linearize()?;
        let relabeled = graph.relabeled(&order);
        let mut slots: Vec<Option<Stage<P>>> = stages.into_iter().map(Some).collect();
        let ordered = order
            .into_iter()
            .map(|i| slots[i].take().expect("each stage placed once"))
            .collect();
        Ok(Application {
            name: name.into(),
            stages: ordered,
            graph: relabeled,
            factory,
            source,
        })
    }

    /// Extracts the non-executable model (names + work profiles + graph)
    /// consumed by the profiler, optimizer, and simulator.
    ///
    /// Chain-shaped graphs are stored as `None` so models of linear apps
    /// serialize exactly as before the DAG generalization.
    pub fn model(&self) -> AppModel {
        AppModel {
            name: self.name.clone(),
            stages: self
                .stages
                .iter()
                .map(|s| StageModel {
                    name: s.name.clone(),
                    work: s.work.clone(),
                })
                .collect(),
            graph: if self.graph.is_chain() {
                None
            } else {
                Some(self.graph.clone())
            },
        }
    }
}

impl<P> fmt::Debug for Application<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Application")
            .field("name", &self.name)
            .field("stages", &self.stages.len())
            .finish()
    }
}

/// Non-executable description of a stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageModel {
    /// Stage name.
    pub name: String,
    /// Resource-demand profile.
    pub work: WorkProfile,
}

/// Non-executable description of an application — everything the profiler
/// and optimizer need, with no payload type attached.
///
/// Deserializing rejects more than [`MAX_STAGES`] stages and a `graph`
/// whose stage count is not the number of `stages`, so the graph's size is
/// bounded by the input's own stage list and by the cap.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppModel {
    /// Application name.
    pub name: String,
    /// Per-stage models in (topological) pipeline order.
    pub stages: Vec<StageModel>,
    /// The stage-dependency graph when it is not a plain chain. `None`
    /// (the serde default) means "linear chain over the stages", which
    /// keeps pre-DAG models deserializable and chain models byte-stable.
    #[serde(default)]
    pub graph: Option<TaskGraph>,
}

impl AppModel {
    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The work profiles in pipeline order.
    pub fn works(&self) -> Vec<WorkProfile> {
        self.stages.iter().map(|s| s.work.clone()).collect()
    }

    /// The stage-dependency graph (materializing the implicit chain when
    /// none is stored).
    ///
    /// # Panics
    ///
    /// Panics if a model built in code lists more than [`MAX_STAGES`]
    /// stages; deserializing one is an error.
    pub fn task_graph(&self) -> TaskGraph {
        match &self.graph {
            Some(g) => g.clone(),
            None => TaskGraph::chain(self.stages.len()),
        }
    }

    /// Whether the app is chain-shaped (every topological neighbour pair
    /// is dependency-ordered), i.e. schedulable by the linear-chain fast
    /// paths.
    pub fn is_chain(&self) -> bool {
        match &self.graph {
            Some(g) => g.is_chain(),
            None => true,
        }
    }
}

impl Deserialize for AppModel {
    fn from_value(v: &serde::Value) -> Result<AppModel, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::new(format!("AppModel: missing field `{name}`")))
        };
        let name = Deserialize::from_value(field("name")?)?;
        let stages: Vec<StageModel> = Deserialize::from_value(field("stages")?)?;
        // Checked before the graph is read: a chain (`"graph": null`) is
        // materialized over the stages, and past the cap that would panic.
        if stages.len() > MAX_STAGES {
            return Err(serde::Error::new(format!(
                "AppModel: {} stages exceed the {MAX_STAGES} a stage graph holds",
                stages.len()
            )));
        }
        let model = AppModel {
            name,
            stages,
            graph: match v.get("graph") {
                Some(g) => Deserialize::from_value(g)?,
                None => None,
            },
        };
        match &model.graph {
            Some(g) if g.len() != model.stages.len() => Err(serde::Error::new(format!(
                "AppModel: graph has {} stages, `stages` lists {}",
                g.len(),
                model.stages.len()
            ))),
            _ => Ok(model),
        }
    }
}

pub use bt_rt::{CyclicGraphError, TaskGraph};

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_stage(name: &str) -> Stage<u32> {
        Stage::new(
            name,
            WorkProfile::new(1.0, 1.0),
            Arc::new(|p: &mut u32, _ctx: &ParCtx| *p += 1),
        )
    }

    fn counter_app() -> Application<u32> {
        Application::new(
            "counter",
            vec![trivial_stage("a"), trivial_stage("b"), trivial_stage("c")],
            Arc::new(|| 0u32),
            Arc::new(|p: &mut u32, seq| *p = seq as u32 * 100),
        )
    }

    #[test]
    fn sequential_execution_applies_all_stages() {
        let app = counter_app();
        let mut payload = app.new_payload();
        app.run_sequential(&mut payload, 2, &ParCtx::serial());
        assert_eq!(payload, 203);
    }

    #[test]
    fn model_extraction() {
        let app = counter_app();
        let model = app.model();
        assert_eq!(model.name, "counter");
        assert_eq!(model.stage_count(), 3);
        assert_eq!(model.stages[1].name, "b");
        assert_eq!(model.works().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_app_panics() {
        let _: Application<u32> = Application::new(
            "empty",
            vec![],
            Arc::new(|| 0u32),
            Arc::new(|_: &mut u32, _| {}),
        );
    }

    #[test]
    fn from_task_graph_linearizes_out_of_order_stages() {
        // Stages provided shuffled; deps force the canonical order, and the
        // payload trace proves execution happens in dependency order.
        let stage = |tag: u32| -> Stage<Vec<u32>> {
            Stage::new(
                format!("s{tag}"),
                WorkProfile::new(1.0, 1.0),
                Arc::new(move |p: &mut Vec<u32>, _ctx: &ParCtx| p.push(tag)),
            )
        };
        // Provided order: [2, 0, 1]; dependencies 0 → 1 → 2 (by provided
        // index: stages[1]=s0 before stages[2]=s1 before stages[0]=s2).
        let mut g = TaskGraph::new(3);
        g.add_dep(1, 2).add_dep(2, 0);
        let app = Application::from_task_graph(
            "dag",
            vec![stage(2), stage(0), stage(1)],
            &g,
            Arc::new(Vec::new),
            Arc::new(|p: &mut Vec<u32>, _| p.clear()),
        )
        .expect("acyclic");
        let mut payload = app.new_payload();
        app.run_sequential(&mut payload, 0, &ParCtx::serial());
        assert_eq!(payload, vec![0, 1, 2]);
        assert_eq!(app.stages()[0].name(), "s0");
    }

    #[test]
    fn from_task_graph_rejects_cycles() {
        let stage = |tag: u32| -> Stage<u32> {
            Stage::new(
                format!("s{tag}"),
                WorkProfile::new(1.0, 1.0),
                Arc::new(move |_: &mut u32, _: &ParCtx| {}),
            )
        };
        let mut g = TaskGraph::new(2);
        g.add_dep(0, 1).add_dep(1, 0);
        let r = Application::from_task_graph(
            "cyclic",
            vec![stage(0), stage(1)],
            &g,
            Arc::new(|| 0u32),
            Arc::new(|_: &mut u32, _| {}),
        );
        assert!(r.is_err());
    }

    #[test]
    fn chain_app_model_omits_graph_and_roundtrips() {
        let app = counter_app();
        assert!(app.graph().is_chain());
        let model = app.model();
        assert!(model.graph.is_none());
        assert!(model.is_chain());
        assert_eq!(model.task_graph(), TaskGraph::chain(3));
        // Pre-DAG JSON (no "graph" key) still deserializes via the serde
        // default, and chain models serialize without the key's contents.
        let json = serde_json::to_string(&model).unwrap();
        let back: AppModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn dag_app_model_carries_graph() {
        let mut g = TaskGraph::new(4);
        g.add_dep(0, 1).add_dep(0, 2).add_dep(1, 3).add_dep(2, 3);
        let app = Application::from_task_graph(
            "diamond",
            vec![
                trivial_stage("src"),
                trivial_stage("a"),
                trivial_stage("b"),
                trivial_stage("join"),
            ],
            &g,
            Arc::new(|| 0u32),
            Arc::new(|_: &mut u32, _| {}),
        )
        .expect("acyclic");
        assert!(!app.graph().is_chain());
        let model = app.model();
        assert!(!model.is_chain());
        let stored = model.graph.as_ref().expect("non-chain graph stored");
        assert_eq!(stored.len(), 4);
        let back: AppModel = serde_json::from_str(&serde_json::to_string(&model).unwrap()).unwrap();
        assert_eq!(back, model);
        assert!(!back.is_chain());
    }

    #[test]
    fn deserializing_a_graph_that_disagrees_with_the_stages_is_an_error() {
        // A million-stage graph over no stages is refused at the cap,
        // before anything sizes by `n`.
        let json = r#"{"name":"x","stages":[],"graph":{"n":1000000,"deps":[]}}"#;
        let err = serde_json::from_str::<AppModel>(json).unwrap_err();
        assert!(
            err.to_string().contains("1000000 stages exceed the 64"),
            "{err}"
        );
        // So are 65 stages whose chain is implicit, with or without the key.
        let stage = serde_json::to_string(&counter_app().model().stages[0]).unwrap();
        let stages = vec![stage; 65].join(",");
        for graph in [r#","graph":null"#, ""] {
            let json = format!(r#"{{"name":"x","stages":[{stages}]{graph}}}"#);
            let err = serde_json::from_str::<AppModel>(&json).unwrap_err();
            assert!(err.to_string().contains("65 stages exceed the 64"), "{err}");
        }
        let mut model = counter_app().model();
        model.graph = Some(TaskGraph::chain(2));
        let json = serde_json::to_string(&model).unwrap();
        assert!(serde_json::from_str::<AppModel>(&json).is_err());
        // A missing field is still an error, and a `null` graph a chain.
        assert!(serde_json::from_str::<AppModel>(r#"{"name":"x"}"#).is_err());
        let chain: AppModel =
            serde_json::from_str(r#"{"name":"x","stages":[],"graph":null}"#).unwrap();
        assert!(chain.graph.is_none());
    }

    #[test]
    fn stage_clone_shares_kernel() {
        let s = trivial_stage("x");
        let s2 = s.clone();
        let mut p = 0u32;
        s2.run(&mut p, &ParCtx::serial());
        assert_eq!(p, 1);
        assert_eq!(s2.name(), "x");
    }
}
