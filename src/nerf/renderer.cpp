#include "nerf/renderer.h"

#include "common/logging.h"
#include "nerf/volume_rendering.h"

namespace flexnerfer {

Image
Renderer::Render(const RadianceField& field, const Camera& camera,
                 RenderStats* stats) const
{
    Image image(camera.width(), camera.height());
    RenderStats local;

    const std::vector<double> ts = StratifiedSamples(
        config_.t_near, config_.t_far, config_.samples_per_ray, nullptr);

    std::vector<RaySample> samples;
    samples.reserve(ts.size());
    for (int y = 0; y < camera.height(); ++y) {
        for (int x = 0; x < camera.width(); ++x) {
            const Ray ray = camera.GenerateRay(x, y);
            samples.clear();
            for (double t : ts) {
                RaySample s;
                s.t = t;
                field.Query(ray.At(t), ray.direction, &s.sigma, &s.color);
                if (s.sigma > config_.active_sigma_threshold) {
                    ++local.active_samples;
                }
                samples.push_back(s);
            }
            local.samples += static_cast<std::int64_t>(samples.size());
            ++local.rays;
            image.at(x, y) =
                CompositeRay(samples, config_.background).color;
        }
    }

    local.mean_active_per_ray =
        local.rays > 0
            ? static_cast<double>(local.active_samples) / local.rays
            : 0.0;
    if (stats) *stats = local;
    return image;
}

}  // namespace flexnerfer
